package multirate

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/calendar"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/policy"
	"repro/internal/routetable"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// Class is one call class of the multi-rate workload.
type Class struct {
	// Name labels the class in reports (e.g. "voice", "video").
	Name string
	// Bandwidth is the capacity units one call reserves on every link of
	// its path.
	Bandwidth int
	// Demand is the per-O-D-pair offered load in Erlangs of *calls* (the
	// bandwidth-weighted link demand is Demand × Bandwidth).
	Demand *traffic.Matrix
}

// Call is one multi-rate call request.
type Call struct {
	ID           int
	Class        int
	Origin, Dest graph.NodeID
	Arrival      float64
	Holding      float64
	Bandwidth    int
}

// check applies sim.Call.Check — origin and destination are graph nodes,
// the arrival finite and non-negative, the holding finite and positive —
// and the multi-rate rules: a non-negative class index and a bandwidth of
// at least one capacity unit. Run checks every call before it starts.
func (c Call) check(numNodes int) error {
	sc := sim.Call{ID: c.ID, Origin: c.Origin, Dest: c.Dest, Arrival: c.Arrival, Holding: c.Holding}
	if err := sc.Check(numNodes); err != nil {
		return fmt.Errorf("multirate: %w", err)
	}
	if c.Class < 0 {
		return fmt.Errorf("multirate: call %d: class %d is negative", c.ID, c.Class)
	}
	if c.Bandwidth < 1 {
		return fmt.Errorf("multirate: call %d: bandwidth %d is below one unit", c.ID, c.Bandwidth)
	}
	return nil
}

// Trace is the class-tagged arrival sequence.
type Trace struct {
	Calls   []Call
	Horizon float64
	Seed    int64
}

// GenerateTrace draws independent Poisson arrivals per (class, pair)
// substream, exactly as the single-rate simulator does per pair.
func GenerateTrace(classes []Class, horizon float64, seed int64) (*Trace, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("multirate: horizon %v", horizon)
	}
	var calls []Call
	for ci, cl := range classes {
		if cl.Bandwidth < 1 {
			return nil, fmt.Errorf("multirate: class %q bandwidth %d", cl.Name, cl.Bandwidth)
		}
		if cl.Demand == nil {
			return nil, fmt.Errorf("multirate: class %q has no demand matrix", cl.Name)
		}
		n := cl.Demand.Size()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				rate := cl.Demand.Demand(graph.NodeID(i), graph.NodeID(j))
				if rate <= 0 {
					continue
				}
				r := xrand.New(seed, int64(ci), int64(i), int64(j))
				t := 0.0
				for {
					t += xrand.Exp(r, 1/rate)
					if t >= horizon {
						break
					}
					calls = append(calls, Call{
						Class:     ci,
						Origin:    graph.NodeID(i),
						Dest:      graph.NodeID(j),
						Arrival:   t,
						Holding:   xrand.Exp(r, 1),
						Bandwidth: cl.Bandwidth,
					})
				}
			}
		}
	}
	sort.Slice(calls, func(a, b int) bool {
		if calls[a].Arrival != calls[b].Arrival {
			return calls[a].Arrival < calls[b].Arrival
		}
		if calls[a].Origin != calls[b].Origin {
			return calls[a].Origin < calls[b].Origin
		}
		if calls[a].Dest != calls[b].Dest {
			return calls[a].Dest < calls[b].Dest
		}
		return calls[a].Class < calls[b].Class
	})
	for i := range calls {
		calls[i].ID = i
	}
	return &Trace{Calls: calls, Horizon: horizon, Seed: seed}, nil
}

// State tracks occupied bandwidth per link.
type State struct {
	g   *graph.Graph
	occ []int
}

// NewState returns an all-idle state.
func NewState(g *graph.Graph) *State {
	return &State{g: g, occ: make([]int, g.NumLinks())}
}

func (s *State) occupy(p paths.Path, bw int) {
	for _, id := range p.Links {
		if s.occ[id]+bw > s.g.Link(id).Capacity {
			panic(fmt.Errorf("multirate: overbooking link %d", id))
		}
		s.occ[id] += bw
	}
}

func (s *State) release(p paths.Path, bw int) {
	for _, id := range p.Links {
		if s.occ[id] < bw {
			panic(fmt.Errorf("multirate: releasing idle link %d", id))
		}
		s.occ[id] -= bw
	}
}

// Discipline selects the routing rule.
type Discipline int

// The three §4 disciplines, bandwidth-aware.
const (
	SinglePath Discipline = iota
	Uncontrolled
	Controlled
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case SinglePath:
		return "single-path"
	case Uncontrolled:
		return "uncontrolled-alternate"
	case Controlled:
		return "controlled-alternate"
	}
	return fmt.Sprintf("discipline(%d)", int(d))
}

// Config parameterizes a multi-rate run.
type Config struct {
	Graph      *graph.Graph
	Table      *policy.Table
	Discipline Discipline
	// Protection is the per-link r in bandwidth units (Controlled only).
	Protection []int
	Trace      *Trace
	Warmup     float64
}

// Result aggregates a run, overall and per class.
type Result struct {
	Discipline                 Discipline
	Offered, Accepted, Blocked int64
	// ByClass indexes per-class counters by class index.
	ByClassOffered, ByClassBlocked []int64
	// BandwidthBlocked is the total bandwidth of blocked calls — the
	// revenue-weighted loss measure for heterogeneous classes.
	BandwidthBlocked, BandwidthOffered int64
	AlternateAccepted                  int64
}

// Blocking returns the call blocking probability.
func (r *Result) Blocking() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Blocked) / float64(r.Offered)
}

// BandwidthBlocking returns the bandwidth-weighted blocking probability.
func (r *Result) BandwidthBlocking() float64 {
	if r.BandwidthOffered == 0 {
		return 0
	}
	return float64(r.BandwidthBlocked) / float64(r.BandwidthOffered)
}

// ClassBlockingProb returns class j's call blocking.
func (r *Result) ClassBlockingProb(j int) float64 {
	if r.ByClassOffered[j] == 0 {
		return 0
	}
	return float64(r.ByClassBlocked[j]) / float64(r.ByClassOffered[j])
}

// Run replays the trace under the configured discipline. Admission runs
// the one kernel every engine shares, routetable.Thresholds.Decide, over
// the table compiled as the discipline's policy compiles it: a call of
// bandwidth bw fits on a link iff occ + bw ≤ C − clamp(r), which is the
// kernel's occ ≤ C' − clamp(r) − 1 at the shifted capacity C' = C − bw + 1
// (a clamp of r into [0, C'] rather than [0, C] moves no decision: every
// r ≥ C' refuses the call either way), so Run binds one threshold set per
// distinct bandwidth. Departures wait on the calendar queue; every
// departure at or before an arrival is released before that arrival is
// decided, and releases commute, so their order among themselves moves
// no result.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil || cfg.Table == nil || cfg.Trace == nil {
		return nil, fmt.Errorf("multirate: incomplete config")
	}
	g := cfg.Graph
	if cfg.Discipline == Controlled && len(cfg.Protection) != g.NumLinks() {
		return nil, fmt.Errorf("multirate: protection length %d for %d links",
			len(cfg.Protection), g.NumLinks())
	}
	horizon := cfg.Trace.Horizon
	if !(horizon > 0 && horizon <= math.MaxFloat64) {
		return nil, fmt.Errorf("multirate: trace horizon %v must be finite and positive", horizon)
	}
	if !(cfg.Warmup >= 0 && cfg.Warmup < horizon) {
		return nil, fmt.Errorf("multirate: warmup %v outside [0, %v)", cfg.Warmup, horizon)
	}
	var comp *routetable.Compiled
	var ok bool
	switch cfg.Discipline {
	case SinglePath:
		comp, ok = policy.SinglePath{T: cfg.Table}.CompileRoutes()
	case Uncontrolled:
		comp, ok = policy.Uncontrolled{T: cfg.Table}.CompileRoutes()
	case Controlled:
		comp, ok = policy.Controlled{T: cfg.Table, R: cfg.Protection}.CompileRoutes()
	default:
		return nil, fmt.Errorf("multirate: unknown %v", cfg.Discipline)
	}
	if !ok {
		return nil, fmt.Errorf("multirate: route table does not compile (a route leaves the graph)")
	}
	// One pass checks every call, finds the last arrival — no departure
	// after it can reach a decision — and binds one threshold set per
	// distinct bandwidth.
	nClasses := 0
	var rules []bwRule
	for _, c := range cfg.Trace.Calls {
		if err := c.check(g.NumNodes()); err != nil {
			return nil, err
		}
		nClasses = max(nClasses, c.Class+1)
		horizon = max(horizon, c.Arrival)
		if ruleOf(rules, c.Bandwidth) >= 0 {
			continue
		}
		rules = append(rules, bwRule{bw: c.Bandwidth})
		if !bind(&rules[len(rules)-1].th, comp, g, c.Bandwidth) {
			return nil, fmt.Errorf("multirate: route table does not match the graph")
		}
	}
	st := NewState(g)
	res := &Result{
		Discipline:     cfg.Discipline,
		ByClassOffered: make([]int64, nClasses),
		ByClassBlocked: make([]int64, nClasses),
	}
	// A departure entry names its row (Ref, −1 for the empty path) and
	// its bandwidth rule (N).
	var deps calendar.Queue
	deps.Init(horizon)
	path := func(row int32) paths.Path {
		if row == routetable.NoRow {
			return paths.Path{}
		}
		return paths.Path{Links: comp.Row(row)}
	}
	n := g.NumNodes()
	for _, c := range cfg.Trace.Calls {
		for {
			d, ok := deps.PopTo(c.Arrival)
			if !ok {
				break
			}
			st.release(path(d.Ref), rules[d.N].bw)
		}
		measured := c.Arrival >= cfg.Warmup
		if measured {
			res.Offered++
			res.ByClassOffered[c.Class]++
			res.BandwidthOffered += int64(c.Bandwidth)
		}
		rule := ruleOf(rules, c.Bandwidth)
		prim, row, _ := rules[rule].th.Decide(st.occ, int(c.Origin)*n+int(c.Dest), int64(c.ID))
		if prim != routetable.NoRow && row == routetable.NoRow {
			if measured {
				res.Blocked++
				res.ByClassBlocked[c.Class]++
				res.BandwidthBlocked += int64(c.Bandwidth)
			}
			continue
		}
		// A pair without primaries is carried on the empty path (row is
		// NoRow too), booking nothing.
		st.occupy(path(row), c.Bandwidth)
		deps.Insert(calendar.Entry{At: c.Arrival + c.Holding, Ref: row, N: int32(rule)})
		if measured {
			res.Accepted++
			if row != prim {
				res.AlternateAccepted++
			}
		}
	}
	return res, nil
}

// bind binds th to comp over g at bandwidth bw's shifted capacities
// C − bw + 1, reporting false when the table does not match the graph.
func bind(th *routetable.Thresholds, comp *routetable.Compiled, g *graph.Graph, bw int) bool {
	return th.Reset(comp, g.NumNodes(), g.NumLinks(), func(id graph.LinkID) (int, bool) {
		return g.Link(id).Capacity - bw + 1, g.Up(id)
	})
}

// bwRule is the admission kernel bound at one call bandwidth's shifted
// capacities.
type bwRule struct {
	bw int
	th routetable.Thresholds
}

// ruleOf returns the index of bandwidth bw's rule, or −1; a trace carries
// a few distinct bandwidths.
func ruleOf(rules []bwRule, bw int) int {
	for i := range rules {
		if rules[i].bw == bw {
			return i
		}
	}
	return -1
}

// LinkClassLoads computes, per link, the offered ClassLoad vector implied by
// the classes' demand matrices under the route table's primaries — the
// multi-rate Equation 1.
func LinkClassLoads(g *graph.Graph, table *policy.Table, classes []Class) ([][]ClassLoad, error) {
	out := make([][]ClassLoad, g.NumLinks())
	for id := range out {
		out[id] = make([]ClassLoad, len(classes))
		for j, cl := range classes {
			out[id][j] = ClassLoad{Erlangs: 0, Bandwidth: cl.Bandwidth}
		}
	}
	n := g.NumNodes()
	for ci, cl := range classes {
		if cl.Demand.Size() != n {
			return nil, fmt.Errorf("multirate: class %q matrix size %d for %d nodes",
				cl.Name, cl.Demand.Size(), n)
		}
		for i := graph.NodeID(0); int(i) < n; i++ {
			for j := graph.NodeID(0); int(j) < n; j++ {
				if i == j {
					continue
				}
				d := cl.Demand.Demand(i, j)
				if d == 0 {
					continue
				}
				rs := table.Routes(i, j)
				if rs == nil {
					return nil, fmt.Errorf("multirate: no routes %d→%d", i, j)
				}
				for _, wp := range rs.Primaries {
					for _, id := range wp.Path.Links {
						out[id][ci].Erlangs += d * wp.Weight
					}
				}
			}
		}
	}
	return out, nil
}

// DeriveProtection computes the per-link multi-rate protection vector from
// the classes' demands via ProtectionLevel.
func DeriveProtection(g *graph.Graph, table *policy.Table, classes []Class) ([]int, error) {
	loads, err := LinkClassLoads(g, table, classes)
	if err != nil {
		return nil, err
	}
	out := make([]int, g.NumLinks())
	for id := range out {
		r, err := ProtectionLevel(loads[id], g.Link(graph.LinkID(id)).Capacity, table.MaxHops())
		if err != nil {
			return nil, err
		}
		out[id] = r
	}
	return out, nil
}
