package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// FailoverMode selects how in-flight calls traversing a failing link are
// handled at the failure epoch.
type FailoverMode int

const (
	// FailoverDrop tears down every affected call and counts the measured
	// ones in Result.LostToFailure — the pessimistic model where the
	// network makes no attempt to save calls caught on a failing link.
	FailoverDrop FailoverMode = iota
	// FailoverReroute gives each affected call one re-admission attempt
	// through the run's policy over the surviving topology — state
	// protection included, so rescued calls still respect per-link r^k.
	// Calls whose attempt fails are dropped as in FailoverDrop.
	FailoverReroute
)

// String returns the mode's report name.
func (m FailoverMode) String() string {
	switch m {
	case FailoverDrop:
		return "drop"
	case FailoverReroute:
		return "reroute"
	default:
		return fmt.Sprintf("failover(%d)", int(m))
	}
}

// FailureEvent is one scheduled topology change: at Epoch, Link goes down
// (Down true) or comes back up (Down false).
type FailureEvent struct {
	Epoch float64
	Link  graph.LinkID
	Down  bool
}

// FailurePlan is a deterministic schedule of link failure and repair
// events merged into the simulation clock by Run. The zero value (no
// events) is valid and reproduces a plan-less run exactly — byte-identical
// event stream, bit-identical Result.
//
// Semantics (see DESIGN.md §11): events apply at their epoch after all
// departures scheduled at or before it, so a call ending exactly when its
// link fails completes normally. Events sharing an epoch apply as one
// atomic topology change before any call is torn down. A failure tears
// down every in-flight call traversing the link per Config.Failover; a
// repair returns the link with zero occupancy (all traversing calls were
// torn down at the failure, and no admission books a down link).
type FailurePlan struct {
	// Events in any order; Run processes them sorted by epoch, with the
	// plan's own order preserved among equal epochs.
	Events []FailureEvent
}

// Add appends one event to the plan.
func (p *FailurePlan) Add(epoch float64, link graph.LinkID, down bool) {
	p.Events = append(p.Events, FailureEvent{Epoch: epoch, Link: link, Down: down})
}

// AddDuplex appends the same event for both directions of the duplex pair
// a↔b, failing (or repairing) them together as a physical trunk would.
func (p *FailurePlan) AddDuplex(g *graph.Graph, a, b graph.NodeID, epoch float64, down bool) error {
	ab := g.LinkBetween(a, b)
	ba := g.LinkBetween(b, a)
	if ab == graph.InvalidLink || ba == graph.InvalidLink {
		return fmt.Errorf("sim: no duplex link %d<->%d", a, b)
	}
	p.Add(epoch, ab, down)
	p.Add(epoch, ba, down)
	return nil
}

// normalized validates the plan against the graph and returns the events
// sorted by epoch (stable: the plan's order is kept among equal epochs).
// A nil plan normalizes to nil.
func (p *FailurePlan) normalized(g *graph.Graph) ([]FailureEvent, error) {
	if p == nil || len(p.Events) == 0 {
		return nil, nil
	}
	out := make([]FailureEvent, len(p.Events))
	copy(out, p.Events)
	n := graph.LinkID(g.NumLinks())
	for i, ev := range out {
		if math.IsNaN(ev.Epoch) || math.IsInf(ev.Epoch, 0) || ev.Epoch < 0 {
			return nil, fmt.Errorf("sim: failure plan event %d: bad epoch %v", i, ev.Epoch)
		}
		if ev.Link < 0 || ev.Link >= n {
			return nil, fmt.Errorf("sim: failure plan event %d: link %d outside [0,%d)", i, ev.Link, n)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out, nil
}

// planEntryJSON is the wire form of one plan event: an epoch, the link
// named by its endpoint nodes, and the new state. With "duplex" set the
// entry covers both directions of the pair.
type planEntryJSON struct {
	T      float64 `json:"t"`
	From   nodeRef `json:"from"`
	To     nodeRef `json:"to"`
	Down   bool    `json:"down"`
	Duplex bool    `json:"duplex,omitempty"`
}

// nodeRef is a JSON node reference: either a numeric node id or the node's
// name as a string ("WA").
type nodeRef struct {
	id     graph.NodeID
	name   string
	byName bool
}

// UnmarshalJSON accepts a number or a string.
func (n *nodeRef) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		n.byName = true
		return json.Unmarshal(b, &n.name)
	}
	var v int
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	// Range-check before narrowing: a conversion would wrap 2^32 to node 0.
	if v < 0 || v > math.MaxInt32 {
		return fmt.Errorf("node %d out of range", v)
	}
	n.id = graph.NodeID(v)
	return nil
}

// resolve maps the reference to a node of g.
func (n nodeRef) resolve(g *graph.Graph) (graph.NodeID, error) {
	if !n.byName {
		if int(n.id) < 0 || int(n.id) >= g.NumNodes() {
			return 0, fmt.Errorf("node %d out of range", int(n.id))
		}
		return n.id, nil
	}
	for i := 0; i < g.NumNodes(); i++ {
		if g.NodeName(graph.NodeID(i)) == n.name {
			return graph.NodeID(i), nil
		}
	}
	return 0, fmt.Errorf("no node named %q", n.name)
}

// ReadFailurePlanJSON decodes a plan from a JSON array of
// {"t":…,"from":…,"to":…,"down":…[,"duplex":true]} entries — from/to are
// node ids or node names — resolving endpoints to link ids on the graph
// (the altsim -failures file format).
func ReadFailurePlanJSON(r io.Reader, g *graph.Graph) (*FailurePlan, error) {
	var entries []planEntryJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&entries); err != nil {
		return nil, fmt.Errorf("sim: failure plan: %w", err)
	}
	plan := &FailurePlan{}
	for i, e := range entries {
		a, err := e.From.resolve(g)
		if err != nil {
			return nil, fmt.Errorf("sim: failure plan entry %d: %w", i, err)
		}
		b, err := e.To.resolve(g)
		if err != nil {
			return nil, fmt.Errorf("sim: failure plan entry %d: %w", i, err)
		}
		if e.Duplex {
			if err := plan.AddDuplex(g, a, b, e.T, e.Down); err != nil {
				return nil, fmt.Errorf("sim: failure plan entry %d: %w", i, err)
			}
			continue
		}
		id := g.LinkBetween(a, b)
		if id == graph.InvalidLink {
			return nil, fmt.Errorf("sim: failure plan entry %d: no link %d->%d", i, int(a), int(b))
		}
		plan.Add(e.T, id, e.Down)
	}
	return plan, nil
}

// OutageParams parameterizes GenerateOutages.
type OutageParams struct {
	// MTBF is the mean up time of a link (exponentially distributed) before
	// it fails. Must be positive.
	MTBF float64
	// MTTR is the mean repair time (exponentially distributed) after a
	// failure. Must be positive.
	MTTR float64
	// Duplex fails both directions of a duplex pair together, driven by one
	// random process per pair — the physical-trunk model the paper's §4
	// failure study uses. Simplex links (no reverse twin) still fail
	// individually.
	Duplex bool
	// Seed selects the outage substream. Outage draws come from dedicated
	// xrand substreams keyed (Seed, outageStreamKey, link), disjoint from
	// the traffic streams, so a plan and a trace generated from the same
	// seed are independent.
	Seed int64
}

// outageStreamKey separates outage substreams from the per-pair traffic
// streams keyed (seed, i, j): no node id reaches this magnitude.
const outageStreamKey int64 = 0x6c696e6b

// GenerateOutages draws an alternating up/down renewal process for every
// link over [0, horizon) and returns the merged, sorted failure plan. Each
// link starts up, stays up exp(MTBF), stays down exp(MTTR), and so on;
// events past the horizon are discarded. The plan is a pure function of
// (graph shape, horizon, params) — same inputs, bit-identical plan.
func GenerateOutages(g *graph.Graph, horizon float64, op OutageParams) (*FailurePlan, error) {
	if !(op.MTBF > 0) || !(op.MTTR > 0) {
		return nil, fmt.Errorf("sim: outage MTBF %v and MTTR %v must be positive", op.MTBF, op.MTTR)
	}
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) || horizon <= 0 {
		return nil, fmt.Errorf("sim: outage horizon %v must be positive and finite", horizon)
	}
	plan := &FailurePlan{}
	links := g.LinkView()
	draw := func(id graph.LinkID, also graph.LinkID) {
		r := xrand.New(op.Seed, outageStreamKey, int64(id))
		t := 0.0
		down := false
		for {
			if down {
				t += xrand.Exp(r, op.MTTR)
			} else {
				t += xrand.Exp(r, op.MTBF)
			}
			if t >= horizon {
				return
			}
			down = !down
			plan.Add(t, id, down)
			if also != graph.InvalidLink {
				plan.Add(t, also, down)
			}
		}
	}
	for i := range links {
		id := graph.LinkID(i)
		rev := g.LinkBetween(links[i].To, links[i].From)
		if op.Duplex && rev != graph.InvalidLink {
			// One process per duplex pair, owned by the lower-numbered
			// direction; the twin mirrors it.
			if rev > id {
				draw(id, rev)
			}
			continue
		}
		draw(id, graph.InvalidLink)
	}
	// Deterministic global order: by epoch, link id breaking ties (the
	// stable per-link generation order is already unique per link, but the
	// merge across links must not depend on iteration accidents).
	sort.SliceStable(plan.Events, func(i, j int) bool {
		a, b := plan.Events[i], plan.Events[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		return a.Link < b.Link
	})
	return plan, nil
}
