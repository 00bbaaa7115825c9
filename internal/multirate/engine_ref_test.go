package multirate

// multirate.Run used to admit through its own bandwidth rule
// (State.AdmitsPrimary/AdmitsAlternate/pathAdmits) and to wait for
// departures on a container/heap ordered by epoch alone. That engine is
// kept here, verbatim but for its names, as the reference the kernel- and
// calendar-based Run must match result for result; the single-class case
// is also held to sim.Run, the shared kernel's own engine.

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/paths"
	"repro/internal/policy"
	"repro/internal/routetable"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func refAdmitsPrimary(s *State, id graph.LinkID, bw int) bool {
	if !s.g.Up(id) {
		return false
	}
	return s.occ[id]+bw <= s.g.Link(id).Capacity
}

func refAdmitsAlternate(s *State, id graph.LinkID, bw, r int) bool {
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

func refPathAdmits(s *State, p paths.Path, bw int, alt bool, r []int) bool {
	for _, id := range p.Links {
		if alt {
			prot := 0
			if uint(id) < uint(len(r)) {
				prot = r[id]
			}
			if !refAdmitsAlternate(s, id, bw, prot) {
				return false
			}
		} else if !refAdmitsPrimary(s, id, bw) {
			return false
		}
	}
	return true
}

type refDeparture struct {
	at   float64
	path paths.Path
	bw   int
}

type refDepHeap []refDeparture

func (h refDepHeap) Len() int            { return len(h) }
func (h refDepHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h refDepHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refDepHeap) Push(x interface{}) { *h = append(*h, x.(refDeparture)) }
func (h *refDepHeap) Pop() interface{} {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

func refRun(cfg Config) *Result {
	nClasses := 0
	for _, c := range cfg.Trace.Calls {
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
	deps := &refDepHeap{}
	heap.Init(deps)
	for _, c := range cfg.Trace.Calls {
		for deps.Len() > 0 && (*deps)[0].at <= c.Arrival {
			d := heap.Pop(deps).(refDeparture)
			st.release(d.path, d.bw)
		}
		measured := c.Arrival >= cfg.Warmup
		if measured {
			res.Offered++
			res.ByClassOffered[c.Class]++
			res.BandwidthOffered += int64(c.Bandwidth)
		}
		prim := cfg.Table.SelectPrimary(sim.Call{ID: c.ID, Origin: c.Origin, Dest: c.Dest})
		var chosen paths.Path
		admitted := false
		alternate := false
		if refPathAdmits(st, prim, c.Bandwidth, false, nil) {
			chosen, admitted = prim, true
		} else if cfg.Discipline != SinglePath {
			for _, alt := range cfg.Table.AlternatesOf(sim.Call{ID: c.ID, Origin: c.Origin, Dest: c.Dest}) {
				var r []int
				if cfg.Discipline == Controlled {
					r = cfg.Protection
				}
				if refPathAdmits(st, alt, c.Bandwidth, true, r) {
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
		heap.Push(deps, refDeparture{at: c.Arrival + c.Holding, path: chosen, bw: c.Bandwidth})
		if measured {
			res.Accepted++
			if alternate {
				res.AlternateAccepted++
			}
		}
	}
	return res
}

// refCase is one topology of the reference comparisons: a route table,
// a voice (1 unit) plus video (6 units) workload, and a congested
// single-rate load.
type refCase struct {
	name    string
	g       *graph.Graph
	tbl     *policy.Table
	classes []Class
	single  *traffic.Matrix
	horizon float64
}

func refCases(t *testing.T) []refCase {
	t.Helper()
	g, tbl, classes := quadSetup(t, 55, 5)
	nsf := netmodel.NSFNet()
	nsfTbl, err := policy.BuildMinHop(nsf, 11)
	if err != nil {
		t.Fatal(err)
	}
	nominal, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	nsfClasses := []Class{
		{Name: "voice", Bandwidth: 1, Demand: nominal.Scaled(0.7)},
		{Name: "video", Bandwidth: 6, Demand: nominal.Scaled(0.3 / 6)},
	}
	return []refCase{
		{name: "quadrangle", g: g, tbl: tbl, classes: classes, single: traffic.Uniform(4, 95), horizon: 30},
		{name: "nsfnet", g: nsf, tbl: nsfTbl, classes: nsfClasses, single: nominal, horizon: 12},
	}
}

// gridded returns a copy of tr with arrival and holding times rounded up
// to multiples of 1/16, so departures and arrivals often share an epoch.
func gridded(tr *Trace) *Trace {
	out := &Trace{Horizon: tr.Horizon, Seed: tr.Seed, Calls: append([]Call(nil), tr.Calls...)}
	for i := range out.Calls {
		c := &out.Calls[i]
		c.Arrival = math.Ceil(c.Arrival*16) / 16
		c.Holding = math.Ceil(c.Holding*16) / 16
	}
	return out
}

// TestRunMatchesHeapReference: Run returns exactly the old engine's
// Result for every discipline over ten seeds on the quadrangle and
// NSFNet, on plain and gridded traces.
func TestRunMatchesHeapReference(t *testing.T) {
	for _, rc := range refCases(t) {
		prot, err := DeriveProtection(rc.g, rc.tbl, rc.classes)
		if err != nil {
			t.Fatal(err)
		}
		var alternates int64
		for seed := int64(1); seed <= 10; seed++ {
			tr, err := GenerateTrace(rc.classes, rc.horizon, seed)
			if err != nil {
				t.Fatal(err)
			}
			for kind, tr := range map[string]*Trace{"plain": tr, "grid": gridded(tr)} {
				for _, d := range []Discipline{SinglePath, Uncontrolled, Controlled} {
					cfg := Config{Graph: rc.g, Table: rc.tbl, Discipline: d, Protection: prot, Trace: tr, Warmup: 2}
					got, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want := refRun(cfg); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s/%v/seed %d: Run\n%+v\nheap reference\n%+v", rc.name, kind, d, seed, got, want)
					}
					alternates += got.AlternateAccepted
				}
			}
		}
		if alternates == 0 {
			t.Errorf("%s: no alternate-routed call: the alternate scan went untested", rc.name)
		}
	}
}

// TestSingleClassMatchesSimRun: with one class of bandwidth 1, Run is the
// single-rate model, so it must count exactly what sim.Run counts under
// the matching policy on the same calls.
func TestSingleClassMatchesSimRun(t *testing.T) {
	for _, rc := range refCases(t) {
		single := []Class{{Name: "unit", Bandwidth: 1, Demand: rc.single}}
		prot, err := DeriveProtection(rc.g, rc.tbl, single)
		if err != nil {
			t.Fatal(err)
		}
		pols := map[Discipline]sim.Policy{
			SinglePath:   policy.SinglePath{T: rc.tbl},
			Uncontrolled: policy.Uncontrolled{T: rc.tbl},
			Controlled:   policy.Controlled{T: rc.tbl, R: prot},
		}
		for seed := int64(1); seed <= 10; seed++ {
			str := sim.GenerateTrace(rc.single, rc.horizon, seed)
			tr := &Trace{Horizon: str.Horizon, Seed: str.Seed, Calls: make([]Call, len(str.Calls))}
			for i, c := range str.Calls {
				tr.Calls[i] = Call{ID: c.ID, Origin: c.Origin, Dest: c.Dest, Arrival: c.Arrival, Holding: c.Holding, Bandwidth: 1}
			}
			for d, pol := range pols {
				got, err := Run(Config{Graph: rc.g, Table: rc.tbl, Discipline: d, Protection: prot, Trace: tr, Warmup: 2})
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.Run(sim.Config{Graph: rc.g, Policy: pol, Trace: str, Warmup: 2})
				if err != nil {
					t.Fatal(err)
				}
				if got.Offered != want.Offered || got.Accepted != want.Accepted ||
					got.Blocked != want.Blocked || got.AlternateAccepted != want.AlternateAccepted {
					t.Fatalf("%s/%v/seed %d: multirate (offered %d, accepted %d, blocked %d, alternate %d), sim.Run (%d, %d, %d, %d)",
						rc.name, d, seed, got.Offered, got.Accepted, got.Blocked, got.AlternateAccepted,
						want.Offered, want.Accepted, want.Blocked, want.AlternateAccepted)
				}
				if d != SinglePath && seed == 1 && got.Blocked == 0 {
					t.Errorf("%s/%v: nothing blocked: the comparison is vacuous", rc.name, d)
				}
			}
		}
	}
}

// TestRunRejectsNonFiniteInputs: a NaN warmup or a NaN, infinite or
// non-positive trace horizon would slip past the ordered comparisons of a
// range check; Run must refuse each, as it refuses a table built for
// another graph rather than indexing past its links.
func TestRunRejectsNonFiniteInputs(t *testing.T) {
	g, tbl, classes := quadSetup(t, 5, 1)
	tr, err := GenerateTrace(classes, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	withHorizon := func(h float64) *Trace { return &Trace{Calls: tr.Calls, Horizon: h, Seed: tr.Seed} }
	big := netmodel.NSFNet()
	bigTbl, err := policy.BuildMinHop(big, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"NaN warmup", Config{Graph: g, Table: tbl, Trace: tr, Warmup: math.NaN()}},
		{"NaN horizon", Config{Graph: g, Table: tbl, Trace: withHorizon(math.NaN())}},
		{"infinite horizon", Config{Graph: g, Table: tbl, Trace: withHorizon(math.Inf(1))}},
		{"zero horizon", Config{Graph: g, Table: tbl, Trace: withHorizon(0)}},
		{"negative horizon", Config{Graph: g, Table: tbl, Trace: withHorizon(-5)}},
		{"table of another graph", Config{Graph: g, Table: bigTbl, Trace: tr}},
		{"unknown discipline", Config{Graph: g, Table: tbl, Discipline: Discipline(7), Trace: tr}},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Run panicked: %v", c.name, r)
				}
			}()
			if _, err := Run(c.cfg); err == nil {
				t.Errorf("%s: Run accepted the config", c.name)
			}
		}()
	}
}

// bandwidthTable compiles a three-node table over links 0 (under test)
// and 1 (held down): pair 0→1 routes its primary over link 0, pair 1→0
// routes its primary over the down link 1 and its alternate over
// alternate, so a call of 1→0 reaches the alternate rule. prot is the
// alternate set's protection vector.
func bandwidthTable(t *testing.T, alternate []graph.LinkID, prot []int) *routetable.Compiled {
	t.Helper()
	b := routetable.NewBuilder(3, 2, 0)
	for p := 0; p < 9; p++ {
		b.StartPair()
		switch p {
		case 1:
			b.Primary([]graph.LinkID{0}, 1)
		case 3:
			b.Primary([]graph.LinkID{1}, 1)
			b.Alternate(alternate)
		}
	}
	f := b.Finish()
	if f == nil {
		t.Fatal("bandwidth table did not build")
	}
	return &routetable.Compiled{Flat: f, Prot: [][]int{nil, prot}}
}

// TestStateBandwidthAdmission checks the shifted-capacity thresholds Run
// binds against the bandwidth rule they encode — a primary fits iff the
// link is up and occ + bw ≤ C, an alternate iff it is up and occ + bw ≤
// C − clamp(r, 0, C) — over every occupancy of a link, bandwidths past C,
// protection levels below 0 and past C, and the link up and down.
func TestStateBandwidthAdmission(t *testing.T) {
	for _, capacity := range []int{1, 4, 10} {
		for _, down := range []bool{false, true} {
			g := graph.New()
			a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
			id := g.MustAddLink(a, b, capacity)
			g.SetDown(g.MustAddLink(b, c, 1), true)
			if down {
				g.SetDown(id, true)
			}
			s := NewState(g)
			for r := -2; r <= capacity+2; r++ {
				comp := bandwidthTable(t, []graph.LinkID{id}, []int{r, 0})
				for bw := 1; bw <= capacity+2; bw++ {
					var th routetable.Thresholds
					if !bind(&th, comp, g, bw) {
						t.Fatal("bind refused a matching table")
					}
					for occ := 0; occ <= capacity; occ++ {
						s.occ[id] = occ
						label := fmt.Sprintf("C=%d down=%v r=%d bw=%d occ=%d", capacity, down, r, bw, occ)
						_, row, _ := th.Decide(s.occ, 1, 0)
						if got, want := row != routetable.NoRow, !down && occ+bw <= capacity; got != want {
							t.Errorf("%s: primary admits %v, want %v", label, got, want)
						}
						_, row, _ = th.Decide(s.occ, 3, 0)
						if got, want := row != routetable.NoRow, !down && occ+bw <= capacity-min(max(r, 0), capacity); got != want {
							t.Errorf("%s: alternate admits %v, want %v", label, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPathAdmitsShortProtectionSlice: regression for the grown-topology
// crash — a protection slice derived before links were added must degrade
// to r = 0 on the new links, not index out of range.
func TestPathAdmitsShortProtectionSlice(t *testing.T) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	old := g.MustAddLink(a, b, 10)
	r := []int{3} // derived when only link `old` existed
	g.SetDown(g.MustAddLink(b, c, 1), true)
	grown := g.MustAddLink(c, a, 10)
	s := NewState(g)
	b3 := routetable.NewBuilder(3, 3, 0)
	for p := 0; p < 9; p++ {
		b3.StartPair()
		if p == 3 {
			b3.Primary([]graph.LinkID{1}, 1)
			b3.Alternate([]graph.LinkID{old, grown})
		}
	}
	comp := &routetable.Compiled{Flat: b3.Finish(), Prot: [][]int{nil, r}}
	admits := func(bw int) bool {
		var th routetable.Thresholds
		if !bind(&th, comp, g, bw) {
			t.Fatal("bind refused a matching table")
		}
		_, row, _ := th.Decide(s.occ, 3, 0)
		return row != routetable.NoRow
	}
	if !admits(2) {
		t.Error("idle path must admit an alternate under short r")
	}
	s.occupy(paths.Path{Links: []graph.LinkID{grown}}, 9)
	if admits(2) {
		t.Error("grown link at 9/10 must refuse bw=2 even with r=0")
	}
	if !admits(1) {
		t.Error("grown link at 9/10 must admit bw=1 with r=0")
	}
	s.occupy(paths.Path{Links: []graph.LinkID{old}}, 7)
	if admits(1) {
		t.Error("old link keeps its protection: 7+1 > 10-3")
	}
}
