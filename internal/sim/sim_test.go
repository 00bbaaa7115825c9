package sim

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/paths"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

func TestGenerateTraceDeterministicAndSorted(t *testing.T) {
	m := traffic.Uniform(4, 5)
	a := GenerateTrace(m, 50, 7)
	b := GenerateTrace(m, 50, 7)
	if len(a.Calls) != len(b.Calls) {
		t.Fatalf("nondeterministic trace length: %d vs %d", len(a.Calls), len(b.Calls))
	}
	for i := range a.Calls {
		if a.Calls[i] != b.Calls[i] {
			t.Fatalf("call %d differs: %+v vs %+v", i, a.Calls[i], b.Calls[i])
		}
	}
	for i := 1; i < len(a.Calls); i++ {
		if a.Calls[i].Arrival < a.Calls[i-1].Arrival {
			t.Fatal("trace not sorted")
		}
	}
	for i, c := range a.Calls {
		if c.ID != i {
			t.Fatalf("call %d has ID %d", i, c.ID)
		}
		if c.Origin == c.Dest || c.Holding <= 0 || c.Arrival < 0 || c.Arrival >= 50 {
			t.Fatalf("malformed call %+v", c)
		}
	}
}

func TestGenerateTraceRates(t *testing.T) {
	// Arrival counts per pair should be ≈ rate × horizon.
	m := traffic.NewMatrix(3)
	m.SetDemand(0, 1, 20)
	m.SetDemand(2, 1, 5)
	tr := GenerateTrace(m, 400, 11)
	counts := map[[2]graph.NodeID]int{}
	for _, c := range tr.Calls {
		counts[[2]graph.NodeID{c.Origin, c.Dest}]++
	}
	if got := counts[[2]graph.NodeID{0, 1}]; math.Abs(float64(got)-8000) > 400 {
		t.Errorf("pair (0,1): %d arrivals, want ≈8000", got)
	}
	if got := counts[[2]graph.NodeID{2, 1}]; math.Abs(float64(got)-2000) > 250 {
		t.Errorf("pair (2,1): %d arrivals, want ≈2000", got)
	}
	if counts[[2]graph.NodeID{1, 0}] != 0 {
		t.Error("pair (1,0) should have no arrivals")
	}
}

func TestGenerateTraceSubstreamIsolation(t *testing.T) {
	// Changing one pair's rate must not perturb another pair's arrivals —
	// the property underpinning exact common random numbers.
	m1 := traffic.NewMatrix(3)
	m1.SetDemand(0, 1, 10)
	m1.SetDemand(1, 2, 10)
	m2 := m1.Clone()
	m2.SetDemand(1, 2, 50)
	extract := func(tr *Trace) []Call {
		var out []Call
		for _, c := range tr.Calls {
			if c.Origin == 0 && c.Dest == 1 {
				c.ID = 0 // IDs shift with total volume; compare payloads
				out = append(out, c)
			}
		}
		return out
	}
	a := extract(GenerateTrace(m1, 100, 3))
	b := extract(GenerateTrace(m2, 100, 3))
	if len(a) != len(b) {
		t.Fatalf("pair (0,1) arrivals changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair (0,1) call %d perturbed", i)
		}
	}
}

func TestGenerateTracePanicsOnBadHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GenerateTrace(traffic.Uniform(2, 1), 0, 1)
}

func TestStateAdmissionSemantics(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.MustAddLink(a, b, 5)
	s := NewState(g)
	p := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{id}}

	// Protection r=2 on C=5: alternates admitted while occ <= 2.
	for occ := 0; occ <= 5; occ++ {
		wantPrim := occ < 5
		wantAlt := occ <= 2
		if got := s.AdmitsPrimary(id); got != wantPrim {
			t.Errorf("occ=%d: AdmitsPrimary=%v, want %v", occ, got, wantPrim)
		}
		if got := s.AdmitsAlternate(id, 2); got != wantAlt {
			t.Errorf("occ=%d: AdmitsAlternate(r=2)=%v, want %v", occ, got, wantAlt)
		}
		if occ < 5 {
			s.Occupy(p)
		}
	}
	if s.Occupancy(id) != 5 || s.Free(id) != 0 {
		t.Errorf("occupancy=%d free=%d", s.Occupancy(id), s.Free(id))
	}
	// Protection clamping.
	s2 := NewState(g)
	if !s2.AdmitsAlternate(id, -7) {
		t.Error("negative r should clamp to 0")
	}
	if s2.AdmitsAlternate(id, 99) {
		t.Error("r > C blocks alternates entirely")
	}
	// Down link admits nothing. Failure state is snapshotted at NewState
	// and updated per run via SetLinkDown (dynamic failure injection);
	// graph-level SetDown after NewState is invisible to an existing state.
	s2.SetLinkDown(id, true)
	if s2.AdmitsPrimary(id) || s2.AdmitsAlternate(id, 0) {
		t.Error("down link should admit nothing")
	}
	if s2.Free(id) != 0 {
		t.Errorf("down link Free=%d, want 0", s2.Free(id))
	}
	s2.SetLinkDown(id, false)
	if !s2.AdmitsPrimary(id) {
		t.Error("repaired link should admit again")
	}
	g.SetDown(id, true)
	s3 := NewState(g)
	if s3.AdmitsPrimary(id) || !s3.LinkDown(id) {
		t.Error("statically-down link should be snapshotted as down")
	}
	g.SetDown(id, false)
}

func TestStatePathChecksAndBlockingLink(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.MustAddLink(a, b, 2)
	bc := g.MustAddLink(b, c, 1)
	p := paths.Path{Nodes: []graph.NodeID{a, b, c}, Links: []graph.LinkID{ab, bc}}
	s := NewState(g)
	if ok, _ := s.PathAdmitsPrimary(p); !ok {
		t.Fatal("idle path should admit")
	}
	s.Occupy(p)
	ok, blockedAt := s.PathAdmitsPrimary(p)
	if ok || blockedAt != bc {
		t.Errorf("want first blocking link %d, got ok=%v link=%d", bc, ok, blockedAt)
	}
	// Alternate view with r=1 on ab: occ(ab)=1, C=2 → occ <= C−r−1 = 0 fails.
	r := make([]int, g.NumLinks())
	r[ab] = 1
	okAlt, blockedAlt := s.PathAdmitsAlternate(p, r)
	if okAlt || blockedAlt != ab {
		t.Errorf("alternate check: ok=%v link=%d, want blocked at %d", okAlt, blockedAlt, ab)
	}
	s.Release(p)
	if s.TotalOccupancy() != 0 {
		t.Errorf("TotalOccupancy = %d after release", s.TotalOccupancy())
	}
}

// TestStateGuardedLookup pins the bounds+down rule shared through linkCap:
// out-of-range link ids and protection slices shorter than the path's link
// ids must degrade gracefully (0 free, no admission, r = 0), never panic.
func TestStateGuardedLookup(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.MustAddLink(a, b, 3)
	bc := g.MustAddLink(b, c, 3)
	s := NewState(g)

	for _, id := range []graph.LinkID{graph.LinkID(g.NumLinks()), 999, graph.InvalidLink} {
		if got := s.Free(id); got != 0 {
			t.Errorf("Free(%d) = %d, want 0", id, got)
		}
		if s.AdmitsPrimary(id) {
			t.Errorf("AdmitsPrimary(%d) = true, want false", id)
		}
		if s.AdmitsAlternate(id, 0) {
			t.Errorf("AdmitsAlternate(%d, 0) = true, want false", id)
		}
		if !s.LinkDown(id) {
			t.Errorf("LinkDown(%d) = false; out-of-range links count as down", id)
		}
		s.SetLinkDown(id, true) // ignored, must not panic
	}

	// A protection slice shorter than the path's largest link id: the
	// uncovered links carry r = 0, and the check must not index past r.
	p := paths.Path{Nodes: []graph.NodeID{a, b, c}, Links: []graph.LinkID{ab, bc}}
	short := []int{2} // covers ab only; bc is beyond the slice
	if ok, blocked := s.PathAdmitsAlternate(p, short); !ok {
		t.Errorf("idle path with short r: blocked at %d, want admitted", blocked)
	}
	if ok, blocked := s.PathAdmitsAlternate(p, nil); !ok {
		t.Errorf("idle path with nil r: blocked at %d, want admitted", blocked)
	}
	// Fill ab to C−r = 1 admission boundary: occ(ab)=1 with r=2 on C=3
	// blocks (occ > C−r−1 = 0), proving the covered prefix still applies.
	s.OccupyLink(ab)
	if ok, blocked := s.PathAdmitsAlternate(p, short); ok || blocked != ab {
		t.Errorf("short r: ok=%v blocked=%d, want blocked at %d", ok, blocked, ab)
	}
	// And bc, past the end of r, behaves as unprotected: fills to capacity.
	s.OccupyLink(bc)
	s.OccupyLink(bc)
	s.OccupyLink(bc)
	if ok, blocked := s.PathAdmitsAlternate(paths.Path{Links: []graph.LinkID{bc}}, short); ok || blocked != bc {
		t.Errorf("full uncovered link: ok=%v blocked=%d, want blocked at %d", ok, blocked, bc)
	}
}

func TestStatePanics(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.MustAddLink(a, b, 1)
	p := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{id}}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	s := NewState(g)
	mustPanic("release idle", func() { s.Release(p) })
	s.Occupy(p)
	mustPanic("occupy full", func() { s.Occupy(p) })
	mustPanic("release idle link", func() { NewState(g).ReleaseLink(id) })
}

// fixedPolicy admits every call on the direct link if free — a minimal
// sim.Policy for testing the runner against M/M/C/C theory.
type fixedPolicy struct {
	path paths.Path
}

func (f fixedPolicy) Name() string                        { return "fixed" }
func (f fixedPolicy) PrimaryPath(*State, Call) paths.Path { return f.path }
func (f fixedPolicy) Route(s *State, c Call) (paths.Path, bool, bool) {
	if ok, _ := s.PathAdmitsPrimary(f.path); ok {
		return f.path, false, true
	}
	return paths.Path{}, false, false
}

func TestRunReproducesErlangB(t *testing.T) {
	// One link, C=20, offered 15 Erlangs: long-run blocking must approach
	// B(15,20) ≈ 0.0365.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.MustAddLink(a, b, 20)
	p := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{id}}
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 15)

	var blocked, offered int64
	for seed := int64(0); seed < 8; seed++ {
		tr := GenerateTrace(m, 1010, seed)
		res, err := Run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10})
		if err != nil {
			t.Fatal(err)
		}
		blocked += res.Blocked
		offered += res.Offered
		if res.Offered != res.Accepted+res.Blocked {
			t.Fatalf("conservation: offered %d != accepted %d + blocked %d",
				res.Offered, res.Accepted, res.Blocked)
		}
	}
	got := float64(blocked) / float64(offered)
	want := erlang.B(15, 20)
	if math.Abs(got-want) > 0.006 {
		t.Errorf("simulated blocking %v, Erlang-B %v", got, want)
	}
}

func TestRunUtilizationMatchesCarriedLoad(t *testing.T) {
	// Time-average occupancy of the single link ≈ carried load λ(1−B).
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.MustAddLink(a, b, 10)
	p := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{id}}
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 7)
	tr := GenerateTrace(m, 2010, 4)
	res, err := Run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := 7 * (1 - erlang.B(7, 10))
	if math.Abs(res.LinkTimeUtil[id]-want) > 0.25 {
		t.Errorf("util %v, want ≈%v", res.LinkTimeUtil[id], want)
	}
	if res.CarriedHopCount != res.Accepted {
		t.Errorf("1-hop path: carried hops %d != accepted %d", res.CarriedHopCount, res.Accepted)
	}
}

func TestRunLossAttribution(t *testing.T) {
	// Two-link tandem with a capacity-1 bottleneck at the second hop: every
	// blocked call must be attributed to the bottleneck.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.MustAddLink(a, b, 50)
	bc := g.MustAddLink(b, c, 1)
	p := paths.Path{Nodes: []graph.NodeID{a, b, c}, Links: []graph.LinkID{ab, bc}}
	m := traffic.NewMatrix(3)
	m.SetDemand(0, 2, 5)
	tr := GenerateTrace(m, 210, 9)
	res, err := Run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked == 0 {
		t.Fatal("expected blocking at the capacity-1 bottleneck")
	}
	if res.LostAtLink[ab] != 0 {
		t.Errorf("losses at ab = %d, want 0", res.LostAtLink[ab])
	}
	if res.LostAtLink[bc] != res.Blocked {
		t.Errorf("losses at bc = %d, want %d", res.LostAtLink[bc], res.Blocked)
	}
	if got := res.PairBlocking(0, 2); got <= 0 || got > 1 {
		t.Errorf("PairBlocking(0,2) = %v", got)
	}
	if got := res.PairBlocking(1, 2); !math.IsNaN(got) {
		t.Errorf("PairBlocking(1,2) = %v, want NaN (no traffic)", got)
	}
	if _, ok := res.PairBlockingOK(1, 2); ok {
		t.Error("PairBlockingOK(1,2) ok = true, want false (no traffic)")
	}
	if b, ok := res.PairBlockingOK(0, 2); !ok || b != res.PairBlocking(0, 2) {
		t.Errorf("PairBlockingOK(0,2) = %v,%v, want the PairBlocking value and ok", b, ok)
	}
}

func TestRunConfigValidation(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 1)
	tr := GenerateTrace(m, 20, 1)
	pol := fixedPolicy{}
	if _, err := Run(Config{Policy: pol, Trace: tr}); err == nil {
		t.Error("nil graph: want error")
	}
	if _, err := Run(Config{Graph: g, Trace: tr}); err == nil {
		t.Error("nil policy: want error")
	}
	if _, err := Run(Config{Graph: g, Policy: pol}); err == nil {
		t.Error("nil trace: want error")
	}
	if _, err := Run(Config{Graph: g, Policy: pol, Trace: tr, Warmup: 30}); err == nil {
		t.Error("warmup past horizon: want error")
	}
}

// TestEnginesRejectBadWindows: every engine resolves its measurement
// window through the same check, so a non-finite or empty window is an
// error everywhere — never an empty Result with a nil error.
func TestEnginesRejectBadWindows(t *testing.T) {
	g, p, m := retrialFixture(t)
	tr := GenerateTrace(m, 20, 1)
	nan, inf := math.NaN(), math.Inf(1)
	engines := threeEngines(p)
	windows := []struct {
		name            string
		warmup, horizon float64
	}{
		{"NaN warmup", nan, 0},
		{"infinite warmup", inf, 0},
		{"negative warmup", -1, 0},
		{"warmup past horizon", 30, 0},
		{"NaN horizon", 0, nan},
		{"infinite horizon", 0, inf},
	}
	for _, e := range engines {
		for _, w := range windows {
			cfg := Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: w.warmup, Horizon: w.horizon}
			if err := e.run(cfg); err == nil {
				t.Errorf("%s, %s: want error", e.name, w.name)
			}
		}
		if err := e.run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 5}); err != nil {
			t.Errorf("%s, valid window: %v", e.name, err)
		}
	}
}

// threeEngines runs one Config through each engine (the signaling engine
// with p as its attempt policy) and returns only the error.
func threeEngines(p paths.Path) []struct {
	name string
	run  func(Config) error
} {
	return []struct {
		name string
		run  func(Config) error
	}{
		{"Run", func(cfg Config) error { _, err := Run(cfg); return err }},
		{"RunWithRetrials", func(cfg Config) error {
			_, err := RunWithRetrials(RetrialConfig{Config: cfg})
			return err
		}},
		{"RunSignaling", func(cfg Config) error {
			cfg.Policy = attemptFixed{fixedPolicy{p}}
			_, err := RunSignaling(SignalingConfig{Config: cfg})
			return err
		}},
	}
}

// sliceSource is an ArrivalSource over a fixed call slice, for feeding
// Run calls no Stream would generate.
type sliceSource struct {
	calls   []Call
	horizon float64
}

func (s *sliceSource) Next() (Call, bool) {
	if len(s.calls) == 0 {
		return Call{}, false
	}
	c := s.calls[0]
	s.calls = s.calls[1:]
	return c, true
}
func (s *sliceSource) Horizon() float64 { return s.horizon }
func (s *sliceSource) Seed() int64      { return 0 }

// TestEnginesRejectUntrustedCalls: a call whose arrival or holding is not
// a finite epoch of the right sign — or whose origin or destination is not
// a node — is an error from every engine, whether it comes from an
// in-memory Trace or (for Run) a Source. Without the check a NaN holding
// is scheduled as a departure that compares false with every epoch, which
// silently changes other calls' outcomes.
func TestEnginesRejectUntrustedCalls(t *testing.T) {
	g, p, m := retrialFixture(t)
	tr := GenerateTrace(m, 20, 1)
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name string
		edit func(*Call)
	}{
		{"NaN holding", func(c *Call) { c.Holding = nan }},
		{"infinite holding", func(c *Call) { c.Holding = inf }},
		{"negative infinite holding", func(c *Call) { c.Holding = -inf }},
		{"negative holding", func(c *Call) { c.Holding = -1 }},
		{"zero holding", func(c *Call) { c.Holding = 0 }},
		{"NaN arrival", func(c *Call) { c.Arrival = nan }},
		{"infinite arrival", func(c *Call) { c.Arrival = inf }},
		{"negative infinite arrival", func(c *Call) { c.Arrival = -inf }},
		{"negative arrival", func(c *Call) { c.Arrival = -1 }},
		{"origin off the graph", func(c *Call) { c.Origin = 2 }},
		{"negative destination", func(c *Call) { c.Dest = -1 }},
	}
	for _, b := range bad {
		calls := append([]Call(nil), tr.Calls...)
		b.edit(&calls[len(calls)/2])
		badTrace := &Trace{Calls: calls, Horizon: tr.Horizon, Seed: tr.Seed}
		for _, e := range threeEngines(p) {
			if err := e.run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: badTrace, Warmup: 5}); err == nil {
				t.Errorf("%s, %s: want error", e.name, b.name)
			}
		}
		src := &sliceSource{calls: calls, horizon: tr.Horizon}
		if res, err := Run(Config{Graph: g, Policy: fixedPolicy{p}, Source: src, Warmup: 5}); err == nil {
			t.Errorf("Run from a Source, %s: want error, got %+v", b.name, res)
		}
	}
	for _, e := range threeEngines(p) {
		if err := e.run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 5}); err != nil {
			t.Errorf("%s, clean trace: %v", e.name, err)
		}
	}
}

// TestRunRejectsOffGraphCalls: a call whose origin or destination is not a
// node of the graph (a hand-built or untrusted trace) is an error from
// Run, not an index panic.
func TestRunRejectsOffGraphCalls(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := fixedFirstHop{g}
	for _, od := range [][2]graph.NodeID{{-1, 1}, {0, -1}, {4, 1}, {1, 4}} {
		tr := &Trace{Horizon: 10, Calls: []Call{
			{ID: 0, Origin: 0, Dest: 1, Arrival: 1, Holding: 1},
			{ID: 1, Origin: od[0], Dest: od[1], Arrival: 2, Holding: 1},
		}}
		if res, err := Run(Config{Graph: g, Policy: pol, Trace: tr}); err == nil {
			t.Errorf("%d→%d: want error, got %+v", od[0], od[1], res)
		}
	}
}

func TestRunConservationProperty(t *testing.T) {
	// Offered = accepted + blocked, and per-pair maps sum to the totals.
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 30)
	f := func(seed int64) bool {
		tr := GenerateTrace(m, 60, seed%1000)
		pol := fixedFirstHop{g}
		res, err := Run(Config{Graph: g, Policy: pol, Trace: tr, Warmup: 5})
		if err != nil {
			return false
		}
		var off, blk int64
		for _, v := range res.PerPairOffered {
			off += v
		}
		for _, v := range res.PerPairBlocked {
			blk += v
		}
		return res.Offered == res.Accepted+res.Blocked &&
			off == res.Offered && blk == res.Blocked &&
			res.Accepted == res.PrimaryAccepted+res.AlternateAccepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// fixedFirstHop routes every call over its direct link (quadrangle).
type fixedFirstHop struct{ g *graph.Graph }

func (f fixedFirstHop) Name() string { return "direct" }
func (f fixedFirstHop) PrimaryPath(_ *State, c Call) paths.Path {
	id := f.g.LinkBetween(c.Origin, c.Dest)
	return paths.Path{Nodes: []graph.NodeID{c.Origin, c.Dest}, Links: []graph.LinkID{id}}
}
func (f fixedFirstHop) Route(s *State, c Call) (paths.Path, bool, bool) {
	p := f.PrimaryPath(s, c)
	if ok, _ := s.PathAdmitsPrimary(p); ok {
		return p, false, true
	}
	return paths.Path{}, false, false
}

func TestRunWindowedStats(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.MustAddLink(a, b, 5)
	p := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{id}}
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 8)
	tr := GenerateTrace(m, 110, 2)
	res, err := Run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10, WindowLength: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 5 {
		t.Fatalf("windows = %d, want 5 (100/20)", len(res.Windows))
	}
	var off, blk int64
	for i, w := range res.Windows {
		if w.Start != 10+float64(i)*20 || w.End != w.Start+20 {
			t.Errorf("window %d bounds [%v,%v)", i, w.Start, w.End)
		}
		if w.Offered == 0 {
			t.Errorf("window %d empty", i)
		}
		off += w.Offered
		blk += w.Blocked
	}
	if off != res.Offered || blk != res.Blocked {
		t.Errorf("window sums (%d,%d) != totals (%d,%d)", off, blk, res.Offered, res.Blocked)
	}
	// Without WindowLength no series is collected.
	res2, err := Run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Windows != nil {
		t.Error("windows collected without WindowLength")
	}
}

func TestRunWindowedRampShowsTrend(t *testing.T) {
	// On a rising ramp the late windows must block more than the early ones.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.MustAddLink(a, b, 10)
	p := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{id}}
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 9)
	var early, late, earlyOff, lateOff int64
	for seed := int64(0); seed < 6; seed++ {
		tr, err := GenerateTraceVarying(m, RampProfile(0.5, 1.6, 110), 110, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10, WindowLength: 25})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Windows) < 4 {
			t.Fatalf("windows = %d", len(res.Windows))
		}
		early += res.Windows[0].Blocked
		earlyOff += res.Windows[0].Offered
		last := res.Windows[len(res.Windows)-1]
		late += last.Blocked
		lateOff += last.Offered
	}
	if lateOff <= earlyOff {
		t.Errorf("ramp should offer more late (%d) than early (%d)", lateOff, earlyOff)
	}
	if float64(late)/float64(lateOff) <= float64(early)/float64(earlyOff) {
		t.Errorf("late blocking %d/%d should exceed early %d/%d", late, lateOff, early, earlyOff)
	}
}

func TestHoldingDistributions(t *testing.T) {
	r := xrand.New(99)
	const n = 200000
	for _, dist := range []HoldingDist{
		HoldingExponential, HoldingDeterministic, HoldingHyperexp, HoldingErlang2,
	} {
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := dist.draw(r)
			if v <= 0 {
				t.Fatalf("%v drew %v", dist, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		cv2 := (sumsq/n - mean*mean) / (mean * mean)
		if math.Abs(mean-1) > 0.02 {
			t.Errorf("%v: mean %v, want 1", dist, mean)
		}
		if math.Abs(cv2-dist.CV2()) > 0.15*math.Max(dist.CV2(), 0.1) {
			t.Errorf("%v: CV² %v, want %v", dist, cv2, dist.CV2())
		}
		if dist.String() == "" {
			t.Errorf("%v: empty name", int(dist))
		}
	}
	if HoldingDist(9).String() == "" {
		t.Error("unknown dist should render")
	}
}

func TestGenerateTraceHoldingSharedArrivals(t *testing.T) {
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 6)
	exp, err := GenerateTraceHolding(m, 50, 3, HoldingExponential)
	if err != nil {
		t.Fatal(err)
	}
	det, err := GenerateTraceHolding(m, 50, 3, HoldingDeterministic)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Calls) != len(det.Calls) {
		t.Fatalf("arrival counts differ: %d vs %d", len(exp.Calls), len(det.Calls))
	}
	for i := range exp.Calls {
		if exp.Calls[i].Arrival != det.Calls[i].Arrival {
			t.Fatal("arrival epochs differ across holding distributions")
		}
		if det.Calls[i].Holding != 1 {
			t.Fatalf("deterministic holding %v", det.Calls[i].Holding)
		}
	}
	if _, err := GenerateTraceHolding(m, 0, 1, HoldingExponential); err == nil {
		t.Error("bad horizon: want error")
	}
}

// TestInsensitivitySingleLink verifies the classical insensitivity of the
// Erlang loss system: blocking depends on the holding distribution only
// through its mean.
func TestInsensitivitySingleLink(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.MustAddLink(a, b, 15)
	p := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{id}}
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 12)
	want := erlang.B(12, 15)
	for _, dist := range []HoldingDist{HoldingDeterministic, HoldingHyperexp, HoldingErlang2} {
		var blocked, offered int64
		for seed := int64(0); seed < 8; seed++ {
			tr, err := GenerateTraceHolding(m, 510, seed, dist)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10})
			if err != nil {
				t.Fatal(err)
			}
			blocked += res.Blocked
			offered += res.Offered
		}
		got := float64(blocked) / float64(offered)
		if math.Abs(got-want) > 0.008 {
			t.Errorf("%v: blocking %v, Erlang-B %v (insensitivity)", dist, got, want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	m := traffic.Uniform(3, 4)
	orig := GenerateTrace(m, 30, 5)
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Calls) != len(orig.Calls) || back.Horizon != orig.Horizon || back.Seed != orig.Seed {
		t.Fatalf("round trip changed header: %+v", back)
	}
	for i := range orig.Calls {
		if back.Calls[i] != orig.Calls[i] {
			t.Fatalf("call %d changed", i)
		}
	}
	// Corrupt header.
	if _, err := ReadTrace(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk input: want error")
	}
	// Tampered payload: unsorted arrivals rejected.
	bad := &Trace{Horizon: 10, Calls: []Call{
		{ID: 0, Origin: 0, Dest: 1, Arrival: 5, Holding: 1},
		{ID: 1, Origin: 0, Dest: 1, Arrival: 2, Holding: 1},
	}}
	var buf2 bytes.Buffer
	if err := bad.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf2); err == nil {
		t.Error("unsorted trace: want error")
	}
}

// TestTryRelease exercises the non-panicking release path used by the ctrl
// ingest layer: a valid release succeeds, a double-release returns a typed
// ErrReleaseIdle instead of panicking, and a refused multi-link release
// rolls back the prefix it had already decremented so occupancy is
// unchanged.
func TestTryReleaseRefusesWithoutCorruption(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.MustAddLink(a, b, 3)
	bc := g.MustAddLink(b, c, 3)
	g.MustAddLink(c, a, 3)
	two := paths.Path{Nodes: []graph.NodeID{a, b, c}, Links: []graph.LinkID{ab, bc}}

	s := NewState(g)
	s.Occupy(two)
	if err := s.TryRelease(two); err != nil {
		t.Fatalf("valid release refused: %v", err)
	}
	if s.Occupancy(ab) != 0 || s.Occupancy(bc) != 0 {
		t.Fatalf("occupancy after release: %d,%d", s.Occupancy(ab), s.Occupancy(bc))
	}
	// Double release: typed error, no panic, no negative occupancy.
	err := s.TryRelease(two)
	if !errors.Is(err, ErrReleaseIdle) {
		t.Fatalf("double release: got %v, want ErrReleaseIdle", err)
	}
	if s.Occupancy(ab) != 0 || s.Occupancy(bc) != 0 {
		t.Fatalf("double release corrupted occupancy: %d,%d", s.Occupancy(ab), s.Occupancy(bc))
	}

	// Partial refusal rolls back: ab occupied, bc idle. The scan
	// decrements ab, hits idle bc, and must restore ab.
	s.Occupy(paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{ab}})
	err = s.TryRelease(two)
	if !errors.Is(err, ErrReleaseIdle) {
		t.Fatalf("partial release: got %v, want ErrReleaseIdle", err)
	}
	if s.Occupancy(ab) != 1 {
		t.Fatalf("partial refusal did not roll back: occ(ab)=%d, want 1", s.Occupancy(ab))
	}

	// Out-of-range link id is refused, not a panic.
	bad := paths.Path{Links: []graph.LinkID{graph.LinkID(99)}}
	if err := s.TryRelease(bad); !errors.Is(err, ErrReleaseIdle) {
		t.Fatalf("out-of-range release: got %v, want ErrReleaseIdle", err)
	}
}
