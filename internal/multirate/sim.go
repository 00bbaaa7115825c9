package multirate

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/policy"
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

// Occupied returns the bandwidth in use on the link.
func (s *State) Occupied(id graph.LinkID) int { return s.occ[id] }

// AdmitsPrimary reports whether the link can carry bw more units.
func (s *State) AdmitsPrimary(id graph.LinkID, bw int) bool {
	if !s.g.Up(id) {
		return false
	}
	return s.occ[id]+bw <= s.g.Link(id).Capacity
}

// AdmitsAlternate applies state protection in bandwidth units: the link
// refuses an alternate call unless occupancy stays at or below C−r after
// acceptance, mirroring the single-rate rule (occ+bw <= C−r).
func (s *State) AdmitsAlternate(id graph.LinkID, bw, r int) bool {
	if !s.g.Up(id) {
		return false
	}
	c := s.g.Link(id).Capacity
	if r < 0 {
		r = 0
	}
	if r > c {
		r = c
	}
	return s.occ[id]+bw <= c-r
}

// pathAdmits checks every link of the path; for alternates, protection
// levels beyond the end of r (topology grown after scheme derivation)
// count as r = 0 rather than panicking.
func (s *State) pathAdmits(p paths.Path, bw int, alt bool, r []int) bool {
	for _, id := range p.Links {
		if alt {
			prot := 0
			if uint(id) < uint(len(r)) {
				prot = r[id]
			}
			if !s.AdmitsAlternate(id, bw, prot) {
				return false
			}
		} else if !s.AdmitsPrimary(id, bw) {
			return false
		}
	}
	return true
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

type departure struct {
	at   float64
	path paths.Path
	bw   int
}

type depHeap []departure

func (h depHeap) Len() int            { return len(h) }
func (h depHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h depHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x interface{}) { *h = append(*h, x.(departure)) }
func (h *depHeap) Pop() interface{} {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

// Run replays the trace under the configured discipline.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil || cfg.Table == nil || cfg.Trace == nil {
		return nil, fmt.Errorf("multirate: incomplete config")
	}
	if cfg.Discipline == Controlled && len(cfg.Protection) != cfg.Graph.NumLinks() {
		return nil, fmt.Errorf("multirate: protection length %d for %d links",
			len(cfg.Protection), cfg.Graph.NumLinks())
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Trace.Horizon {
		return nil, fmt.Errorf("multirate: warmup %v outside [0, %v)", cfg.Warmup, cfg.Trace.Horizon)
	}
	nClasses := 0
	for _, c := range cfg.Trace.Calls {
		if err := c.check(cfg.Graph.NumNodes()); err != nil {
			return nil, err
		}
		if c.Class+1 > nClasses {
			nClasses = c.Class + 1
		}
	}
	st := NewState(cfg.Graph)
	res := &Result{
		Discipline:     cfg.Discipline,
		ByClassOffered: make([]int64, nClasses),
		ByClassBlocked: make([]int64, nClasses),
	}
	deps := &depHeap{}
	heap.Init(deps)
	for _, c := range cfg.Trace.Calls {
		for deps.Len() > 0 && (*deps)[0].at <= c.Arrival {
			d := heap.Pop(deps).(departure)
			st.release(d.path, d.bw)
		}
		measured := c.Arrival >= cfg.Warmup
		if measured {
			res.Offered++
			res.ByClassOffered[c.Class]++
			res.BandwidthOffered += int64(c.Bandwidth)
		}
		// SelectPrimary keys on the single-rate call ID for bifurcated
		// primaries; classes share route suites.
		prim := cfg.Table.SelectPrimary(sim.Call{ID: c.ID, Origin: c.Origin, Dest: c.Dest})
		var chosen paths.Path
		admitted := false
		alternate := false
		if st.pathAdmits(prim, c.Bandwidth, false, nil) {
			chosen, admitted = prim, true
		} else if cfg.Discipline != SinglePath {
			for _, alt := range cfg.Table.AlternatesOf(sim.Call{ID: c.ID, Origin: c.Origin, Dest: c.Dest}) {
				useProt := cfg.Discipline == Controlled
				var r []int
				if useProt {
					r = cfg.Protection
				}
				if st.pathAdmits(alt, c.Bandwidth, true, r) {
					chosen, admitted, alternate = alt, true, true
					break
				}
			}
		}
		if !admitted {
			if measured {
				res.Blocked++
				res.ByClassBlocked[c.Class]++
				res.BandwidthBlocked += int64(c.Bandwidth)
			}
			continue
		}
		st.occupy(chosen, c.Bandwidth)
		heap.Push(deps, departure{at: c.Arrival + c.Holding, path: chosen, bw: c.Bandwidth})
		if measured {
			res.Accepted++
			if alternate {
				res.AlternateAccepted++
			}
		}
	}
	return res, nil
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
