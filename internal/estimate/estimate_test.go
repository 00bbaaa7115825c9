package estimate

import (
	"math"
	"testing"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/paths"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func TestEstimatorConvergesToOfferedRate(t *testing.T) {
	g := netmodel.Quadrangle()
	e, err := New(g, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	id := g.LinkBetween(0, 1)
	p := paths.Path{Nodes: []graph.NodeID{0, 1}, Links: []graph.LinkID{id}}
	// Deterministic arrivals at rate 20/unit for 200 units.
	rate := 20.0
	for i := 0; i < int(200*rate); i++ {
		e.ObserveSetup(float64(i)/rate, p, graph.InvalidLink)
	}
	e.roll(201)
	if got := e.Estimate(id); math.Abs(got-rate) > 0.5 {
		t.Errorf("estimate %v, want ≈%v", got, rate)
	}
	// Unobserved links stay at zero.
	if got := e.Estimate(g.LinkBetween(2, 3)); got != 0 {
		t.Errorf("idle link estimate %v", got)
	}
}

func TestEstimatorStopsAtBlockingLink(t *testing.T) {
	g := netmodel.Quadrangle()
	e, err := New(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ab := g.LinkBetween(0, 2)
	bc := g.LinkBetween(2, 1)
	p := paths.Path{Nodes: []graph.NodeID{0, 2, 1}, Links: []graph.LinkID{ab, bc}}
	e.ObserveSetup(0, p, ab) // blocked at first hop: second hop never sees it
	e.roll(1.5)
	if e.Estimate(ab) == 0 {
		t.Error("blocking link should observe the set-up")
	}
	if e.Estimate(bc) != 0 {
		t.Error("downstream link must not observe a blocked set-up")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 5, 0.3); err == nil {
		t.Error("nil graph: want error")
	}
	g := netmodel.Quadrangle()
	e, err := New(g, -1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if e.Window != 5 || e.Alpha != 0.3 {
		t.Errorf("defaults not applied: window %v alpha %v", e.Window, e.Alpha)
	}
}

// TestAdaptiveControlledTracksOracle runs the adaptive policy on the
// quadrangle and checks (a) it is competitive with the a-priori-Λ controlled
// policy (robustness claim) and (b) its learned protection levels land near
// the oracle values.
func TestAdaptiveControlledTracksOracle(t *testing.T) {
	g := netmodel.Quadrangle()
	load := 90.0
	m := traffic.Uniform(4, load)
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumLinks())
	for i := range loads {
		loads[i] = load
	}
	oracle, err := policy.NewControlled(tbl, loads)
	if err != nil {
		t.Fatal(err)
	}

	var oracleBlocked, adaptiveBlocked, offered int64
	var lastAdaptive *AdaptiveControlled
	for seed := int64(0); seed < 4; seed++ {
		tr := sim.GenerateTrace(m, 110, seed)
		est, err := New(g, 5, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := NewAdaptiveControlled(tbl, est, 5)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := sim.Run(sim.Config{Graph: g, Policy: oracle, Trace: tr, Warmup: 10})
		if err != nil {
			t.Fatal(err)
		}
		ra, err := sim.Run(sim.Config{Graph: g, Policy: adaptive, Trace: tr, Warmup: 10})
		if err != nil {
			t.Fatal(err)
		}
		oracleBlocked += ro.Blocked
		adaptiveBlocked += ra.Blocked
		offered += ro.Offered
		lastAdaptive = adaptive
	}
	ob := float64(oracleBlocked) / float64(offered)
	ab := float64(adaptiveBlocked) / float64(offered)
	if ab > ob+0.012 {
		t.Errorf("adaptive blocking %v much worse than oracle %v", ab, ob)
	}
	// Learned protection close to the oracle's: the estimate measures the
	// thinned demand (bias down) with window sampling noise (spread both
	// ways), so allow a modest band around the oracle level.
	or := oracle.R[0]
	for id, r := range lastAdaptive.Protection() {
		if r > or+4 || r < or-6 {
			t.Errorf("link %d: learned r=%d far from oracle r=%d", id, r, or)
		}
	}
}

func TestNewAdaptiveControlledValidation(t *testing.T) {
	g := netmodel.Quadrangle()
	est, err := New(g, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdaptiveControlled(nil, est, 0); err == nil {
		t.Error("nil table: want error")
	}
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdaptiveControlled(tbl, nil, 0); err == nil {
		t.Error("nil estimator: want error")
	}
	a, err := NewAdaptiveControlled(tbl, est, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Refresh != est.Window {
		t.Errorf("default refresh %v, want window %v", a.Refresh, est.Window)
	}
}

// TestRollRejectsClockAnomalies is the live-daemon hardening regression
// test: roll assumed monotonically increasing timestamps, so a regressing,
// NaN, or ±Inf `now` must be ignored with a counter rather than folding
// observations into the wrong window (and an Inf timestamp must not spin
// the fold loop forever — pre-fix this test hangs).
func TestRollRejectsClockAnomalies(t *testing.T) {
	g := netmodel.Quadrangle()
	e, err := New(g, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	id := g.LinkBetween(0, 1)
	p := paths.Path{Nodes: []graph.NodeID{0, 1}, Links: []graph.LinkID{id}}

	// Establish a baseline: two set-ups in window [0,1), folded at t=1.
	e.ObserveSetup(0.2, p, graph.InvalidLink)
	e.ObserveSetup(0.7, p, graph.InvalidLink)
	e.roll(1)
	base := e.Estimate(id)
	if base != 2 {
		t.Fatalf("baseline estimate %v, want 2", base)
	}
	wantEnd := e.windowEnd

	// Regressing timestamps: ignored, counted, window clock untouched.
	e.roll(0.3)
	e.ObserveSetup(0.1, p, graph.InvalidLink) // counts toward current window
	if e.Regressions() != 2 {
		t.Errorf("Regressions()=%d, want 2", e.Regressions())
	}
	if e.windowEnd != wantEnd || e.Estimate(id) != base {
		t.Errorf("regressing roll moved the window: end=%v est=%v", e.windowEnd, e.Estimate(id))
	}

	// Equal timestamp at the fold boundary must not double-roll.
	e.roll(1)
	if e.windowEnd != wantEnd || e.Estimate(id) != base {
		t.Errorf("equal-timestamp roll double-rolled: end=%v est=%v", e.windowEnd, e.Estimate(id))
	}

	// Non-finite timestamps: ignored and counted. Pre-fix, roll(+Inf)
	// never terminates (now >= windowEnd holds forever).
	e.roll(math.Inf(1))
	e.roll(math.Inf(-1))
	e.roll(math.NaN())
	if e.Regressions() != 5 {
		t.Errorf("Regressions()=%d, want 5", e.Regressions())
	}
	if e.windowEnd != wantEnd {
		t.Errorf("non-finite roll moved the window to %v", e.windowEnd)
	}

	// Normal operation resumes after the anomalies.
	e.roll(2)
	if e.windowEnd != wantEnd+1 {
		t.Errorf("window did not resume: end=%v", e.windowEnd)
	}
}

// TestRollSurvivesHugeForwardJump: a large but finite timestamp jump (a
// daemon fed epoch-seconds instead of model time, say) must terminate
// promptly instead of folding one window at a time across the gap.
// Pre-fix this is ~1e15 fold iterations — an effective hang.
func TestRollSurvivesHugeForwardJump(t *testing.T) {
	g := netmodel.Quadrangle()
	e, err := New(g, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	id := g.LinkBetween(0, 1)
	p := paths.Path{Nodes: []graph.NodeID{0, 1}, Links: []graph.LinkID{id}}
	e.ObserveSetup(0.5, p, graph.InvalidLink)
	e.roll(1e15)
	// Denormal rounding can pin the decay at the smallest subnormal
	// instead of exact zero; anything above that is a real failure.
	if got := e.Estimate(id); got > 1e-300 {
		t.Errorf("estimate %v after a 1e15-window idle gap, want decay to ≈0", got)
	}
	if e.windowEnd <= 1e15 {
		t.Errorf("window clock %v did not pass the jump", e.windowEnd)
	}
	// And the estimator still works on the other side of the gap.
	e.ObserveSetup(1e15+1.5, p, graph.InvalidLink)
	e.Advance(1e15 + 3)
	if e.Estimate(id) == 0 {
		t.Error("estimator dead after large jump")
	}
}

// TestRefreshAfterFailureMatchesFromScratch runs the adaptive policy
// through a live FailurePlan (the 0<->1 trunk fails mid-run), then forces
// a refresh on the degraded topology and proves the re-derived protection
// levels are bit-identical to a from-scratch Equation-15 derivation from
// the same estimates and capacities — the memoized/cached refresh path
// must not drift from the direct one after a link-down epoch.
func TestRefreshAfterFailureMatchesFromScratch(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 85)
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(g, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptiveControlled(tbl, est, 5)
	if err != nil {
		t.Fatal(err)
	}
	var plan sim.FailurePlan
	if err := plan.AddDuplex(g, 0, 1, 20, true); err != nil {
		t.Fatal(err)
	}
	tr := sim.GenerateTrace(m, 60, 3)
	if _, err := sim.Run(sim.Config{Graph: g, Policy: a, Trace: tr, Failures: &plan}); err != nil {
		t.Fatal(err)
	}

	// Refresh on the degraded topology, then re-derive from scratch using
	// the very estimates the refresh consumed.
	st := sim.NewState(g)
	st.SetLinkDown(g.LinkBetween(0, 1), true)
	st.SetLinkDown(g.LinkBetween(1, 0), true)
	a.refresh(61, st)
	got := a.Protection()
	lambdas := est.Estimates()
	seen := false
	for id, lam := range lambdas {
		if lam > 0 {
			seen = true
		}
		want := erlang.ProtectionLevel(lam, g.Link(graph.LinkID(id)).Capacity, tbl.MaxAltHops)
		if got[id] != want {
			t.Errorf("protection[%d] = %d, want from-scratch %d (Λ̂=%v)", id, got[id], want, lam)
		}
	}
	if !seen {
		t.Fatal("estimator observed no traffic — the run did not exercise it")
	}
}
