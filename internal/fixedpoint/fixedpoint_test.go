package fixedpoint

import (
	"math"
	"testing"
	"time"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func TestSolveSingleLinkIsExact(t *testing.T) {
	// One isolated link: the fixed point is exactly Erlang-B, no thinning.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.MustAddLink(a, b, 20)
	g.MustAddLink(b, a, 20)
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 15)
	m.SetDemand(1, 0, 3)
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, m, tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ab := g.LinkBetween(a, b)
	want := erlang.B(15, 20)
	if math.Abs(res.LinkBlocking[ab]-want) > 1e-10 {
		t.Errorf("B(ab) = %v, want %v", res.LinkBlocking[ab], want)
	}
	wantNet := (15*erlang.B(15, 20) + 3*erlang.B(3, 20)) / 18
	if math.Abs(res.NetworkBlocking-wantNet) > 1e-10 {
		t.Errorf("network blocking %v, want %v", res.NetworkBlocking, wantNet)
	}
	if got := res.PathBlocking[[2]graph.NodeID{0, 1}]; math.Abs(got-want) > 1e-10 {
		t.Errorf("path blocking %v, want %v", got, want)
	}
}

func TestSolveQuadrangleSymmetric(t *testing.T) {
	// Fully-connected, one-hop primaries, no shared links: exact again.
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 90)
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, m, tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := erlang.B(90, 100)
	for k, bk := range res.LinkBlocking {
		if math.Abs(bk-want) > 1e-10 {
			t.Errorf("link %d blocking %v, want %v", k, bk, want)
		}
	}
	if math.Abs(res.NetworkBlocking-want) > 1e-10 {
		t.Errorf("network blocking %v, want %v", res.NetworkBlocking, want)
	}
}

func TestSolvePredictsSinglePathSimulationNSFNet(t *testing.T) {
	// The headline use: the fixed point approximates the simulated
	// single-path blocking on the sparse NSFNet within ~1.5 points at
	// nominal load.
	g := netmodel.NSFNet()
	m, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, m, tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var blocked, offered int64
	for seed := int64(0); seed < 4; seed++ {
		tr := sim.GenerateTrace(m, 110, seed)
		r, err := sim.Run(sim.Config{Graph: g, Policy: policy.SinglePath{T: tbl}, Trace: tr, Warmup: 10})
		if err != nil {
			t.Fatal(err)
		}
		blocked += r.Blocked
		offered += r.Offered
	}
	simulated := float64(blocked) / float64(offered)
	if math.Abs(res.NetworkBlocking-simulated) > 0.015 {
		t.Errorf("fixed point %v vs simulated single-path %v", res.NetworkBlocking, simulated)
	}
	// Thinning: reduced loads never exceed the raw Equation-1 demands.
	raw := traffic.LinkLoads(g, m, mustRouting(t, g))
	for k := range res.ReducedLoad {
		if res.ReducedLoad[k] > raw[k]+1e-9 {
			t.Errorf("link %d reduced load %v exceeds raw %v", k, res.ReducedLoad[k], raw[k])
		}
	}
}

func mustRouting(t *testing.T, g *graph.Graph) *traffic.PrimaryRouting {
	t.Helper()
	pr, err := traffic.MinHopRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestSolveMonotoneInLoad(t *testing.T) {
	g := netmodel.NSFNet()
	m, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, scale := range []float64{0.6, 0.8, 1.0, 1.2, 1.4} {
		res, err := Solve(g, m.Scaled(scale), tbl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NetworkBlocking < prev-1e-9 {
			t.Errorf("blocking not monotone at scale %v: %v < %v", scale, res.NetworkBlocking, prev)
		}
		prev = res.NetworkBlocking
		if res.Iterations <= 0 {
			t.Error("no iterations recorded")
		}
	}
}

func TestSolveDownLinkBlocksEverything(t *testing.T) {
	// Failing a link forces B=1 there; with this 2-node net all traffic dies.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	ab := g.MustAddLink(a, b, 5)
	g.MustAddLink(b, a, 5)
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 2)
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.SetDown(ab, true) // fail after route computation
	res, err := Solve(g, m, tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkBlocking[ab] != 1 {
		t.Errorf("down link blocking %v, want 1", res.LinkBlocking[ab])
	}
	if math.Abs(res.NetworkBlocking-1) > 1e-12 {
		t.Errorf("network blocking %v, want 1", res.NetworkBlocking)
	}
}

func TestSolveValidation(t *testing.T) {
	g := netmodel.Quadrangle()
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, traffic.NewMatrix(3), tbl, Options{}); err == nil {
		t.Error("size mismatch: want error")
	}
}

func TestSolveOnIterationTrace(t *testing.T) {
	g := netmodel.NSFNet()
	m, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		iter     int
		residual float64
		elapsed  time.Duration
	}
	var trace []rec
	res, err := Solve(g, m, tbl, Options{
		OnIteration: func(iter int, residual float64, elapsed time.Duration) {
			trace = append(trace, rec{iter, residual, elapsed})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != res.Iterations {
		t.Fatalf("%d trace records for %d iterations", len(trace), res.Iterations)
	}
	for i, r := range trace {
		if r.iter != i {
			t.Fatalf("record %d has iteration %d", i, r.iter)
		}
		if r.residual < 0 || math.IsNaN(r.residual) {
			t.Fatalf("record %d residual %v", i, r.residual)
		}
		if r.elapsed < 0 {
			t.Fatalf("record %d elapsed %v", i, r.elapsed)
		}
		if i > 0 && r.elapsed < trace[i-1].elapsed {
			t.Fatalf("elapsed time went backwards at record %d", i)
		}
	}
	// The final residual met the (default) tolerance; the first did not —
	// the trace really is a convergence curve.
	if last := trace[len(trace)-1].residual; last > 1e-12 {
		t.Errorf("final residual %v above default tolerance", last)
	}
	if first := trace[0].residual; first <= 1e-12 {
		t.Errorf("first residual %v already converged; trace is degenerate", first)
	}

	// The hook must not perturb the solution.
	bare, err := Solve(g, m, tbl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bare.NetworkBlocking != res.NetworkBlocking || bare.Iterations != res.Iterations {
		t.Errorf("hook changed the solve: %v/%d vs %v/%d",
			res.NetworkBlocking, res.Iterations, bare.NetworkBlocking, bare.Iterations)
	}
}
