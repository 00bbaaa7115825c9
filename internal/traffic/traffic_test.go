package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/netmodel"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if m.Size() != 3 {
		t.Fatalf("Size = %d", m.Size())
	}
	m.SetDemand(0, 1, 2.5)
	m.SetDemand(2, 0, 4)
	if got := m.Demand(0, 1); got != 2.5 {
		t.Errorf("Demand(0,1) = %v", got)
	}
	if got := m.Demand(1, 0); got != 0 {
		t.Errorf("Demand(1,0) = %v, want 0", got)
	}
	if got := m.Total(); math.Abs(got-6.5) > 1e-12 {
		t.Errorf("Total = %v, want 6.5", got)
	}
	s := m.Scaled(2)
	if got := s.Demand(0, 1); got != 5 {
		t.Errorf("Scaled Demand(0,1) = %v, want 5", got)
	}
	if got := m.Demand(0, 1); got != 2.5 {
		t.Errorf("Scaled mutated original: %v", got)
	}
	c := m.Clone()
	c.SetDemand(0, 1, 9)
	if m.Demand(0, 1) != 2.5 {
		t.Error("Clone mutated original")
	}
}

func TestMatrixPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	m := NewMatrix(2)
	mustPanic("diagonal", func() { m.SetDemand(1, 1, 1) })
	mustPanic("negative", func() { m.SetDemand(0, 1, -1) })
	mustPanic("NaN", func() { m.SetDemand(0, 1, math.NaN()) })
	mustPanic("out of range", func() { m.Demand(0, 5) })
	mustPanic("negative size", func() { NewMatrix(-1) })
	mustPanic("bad scale", func() { m.Scaled(-2) })
	// A finite demand times a finite factor can still overflow; the
	// product must meet SetDemand's rule too.
	big := NewMatrix(2)
	big.SetDemand(0, 1, 1e200)
	mustPanic("overflowing scale", func() { big.Scaled(1e200) })
	if got := big.Scaled(1e100).Demand(0, 1); got != 1e300 {
		t.Errorf("Scaled(1e100) Demand(0,1) = %v, want 1e300", got)
	}
}

func TestUniform(t *testing.T) {
	m := Uniform(4, 3)
	if got := m.Total(); math.Abs(got-36) > 1e-12 {
		t.Errorf("Total = %v, want 36 (12 pairs × 3)", got)
	}
	for i := graph.NodeID(0); i < 4; i++ {
		if m.Demand(i, i) != 0 {
			t.Errorf("diagonal (%d,%d) nonzero", i, i)
		}
	}
}

func TestMinHopRoutingQuadrangle(t *testing.T) {
	g := netmodel.Quadrangle()
	pr, err := MinHopRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Pairs() != 12 {
		t.Errorf("Pairs = %d, want 12", pr.Pairs())
	}
	// Fully connected: every primary path is the one-hop direct link.
	for i := graph.NodeID(0); i < 4; i++ {
		for j := graph.NodeID(0); j < 4; j++ {
			if i == j {
				continue
			}
			p, ok := pr.Path(i, j)
			if !ok || p.Hops() != 1 {
				t.Errorf("primary %d→%d: %v (ok=%v)", i, j, p, ok)
			}
		}
	}
	if _, ok := pr.Path(0, 0); ok {
		t.Error("Path(0,0) should not exist")
	}
}

func TestMinHopRoutingDisconnected(t *testing.T) {
	g := graph.New()
	g.AddNodes(2)
	if _, err := MinHopRouting(g); err == nil {
		t.Error("disconnected graph: want error")
	}
}

func TestLinkLoadsQuadrangleUniform(t *testing.T) {
	// Uniform demand ρ on the quadrangle puts exactly ρ primary Erlangs on
	// every link (each link carries only its own one-hop pair).
	g := netmodel.Quadrangle()
	pr, err := MinHopRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	m := Uniform(4, 85)
	loads := LinkLoads(g, m, pr)
	if len(loads) != g.NumLinks() {
		t.Fatalf("len(loads) = %d", len(loads))
	}
	for id, l := range loads {
		if math.Abs(l-85) > 1e-12 {
			t.Errorf("link %d load %v, want 85", id, l)
		}
	}
}

func TestLinkLoadsAdditive(t *testing.T) {
	// Property: loads are linear in the matrix.
	g := netmodel.NSFNet()
	pr, err := MinHopRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8, scaleSeed uint8) bool {
		i := graph.NodeID(a % 12)
		j := graph.NodeID(b % 12)
		if i == j {
			return true
		}
		scale := 1 + float64(scaleSeed)/16
		m := NewMatrix(12)
		m.SetDemand(i, j, 7)
		l1 := LinkLoads(g, m, pr)
		l2 := LinkLoads(g, m.Scaled(scale), pr)
		for k := range l1 {
			if math.Abs(l2[k]-scale*l1[k]) > 1e-9 {
				return false
			}
		}
		// Single-pair matrix loads exactly the primary path links with 7.
		p, _ := pr.Path(i, j)
		onPath := map[graph.LinkID]bool{}
		for _, id := range p.Links {
			onPath[id] = true
		}
		for k, v := range l1 {
			want := 0.0
			if onPath[graph.LinkID(k)] {
				want = 7
			}
			if math.Abs(v-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFitLinkLoadsSmall(t *testing.T) {
	// Triangle with asymmetric targets: fit must reproduce them exactly.
	g := netmodel.Complete(3, 10)
	pr, err := MinHopRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]float64, g.NumLinks())
	want := map[[2]graph.NodeID]float64{
		{0, 1}: 5, {1, 0}: 3, {1, 2}: 8, {2, 1}: 2, {0, 2}: 1, {2, 0}: 7,
	}
	for pair, v := range want {
		targets[g.LinkBetween(pair[0], pair[1])] = v
	}
	m, err := FitLinkLoads(g, pr, targets, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loads := LinkLoads(g, m, pr)
	for pair, v := range want {
		id := g.LinkBetween(pair[0], pair[1])
		if math.Abs(loads[id]-v) > 1e-6 {
			t.Errorf("link %v load %v, want %v", pair, loads[id], v)
		}
	}
}

func TestFitLinkLoadsErrors(t *testing.T) {
	g := netmodel.Complete(3, 10)
	pr, err := MinHopRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitLinkLoads(g, pr, []float64{1}, FitOptions{}); err == nil {
		t.Error("wrong target length: want error")
	}
	bad := NewMatrix(5)
	targets := make([]float64, g.NumLinks())
	if _, err := FitLinkLoads(g, pr, targets, FitOptions{Seed: bad}); err == nil {
		t.Error("wrong seed size: want error")
	}
}

func TestFitLinkLoadsZeroTarget(t *testing.T) {
	// A zero target forces all contributing demands to zero; on the complete
	// triangle the 1-hop pair is the only contributor.
	g := netmodel.Complete(3, 10)
	pr, err := MinHopRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]float64, g.NumLinks())
	for i := range targets {
		targets[i] = -1
	}
	targets[g.LinkBetween(0, 1)] = 0
	m, err := FitLinkLoads(g, pr, targets, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Demand(0, 1) != 0 {
		t.Errorf("Demand(0,1) = %v, want 0", m.Demand(0, 1))
	}
}

// TestNSFNetNominalMatchesTable1 is the headline reconstruction check: the
// fitted matrix must reproduce every published Λ^k of Table 1 (within the
// fit tolerance) under deterministic min-hop primary routing.
func TestNSFNetNominalMatchesTable1(t *testing.T) {
	m, pr, err := NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	g := netmodel.NSFNet()
	loads := LinkLoads(g, m, pr)
	for pair, want := range netmodel.NSFNetTable1Load() {
		id := g.LinkBetween(pair[0], pair[1])
		if got := loads[id]; math.Abs(got-want) > 1e-5 {
			t.Errorf("Λ(%d→%d) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
	// All demands nonnegative, zero diagonal, plausible total (≈ ΣΛ / avg
	// hops; ΣΛ = 2136, avg primary hops ≈ 2.39 → total ≈ 890).
	total := m.Total()
	if total < 700 || total > 1100 {
		t.Errorf("total offered load %v Erlangs implausible", total)
	}
	for i := graph.NodeID(0); i < 12; i++ {
		for j := graph.NodeID(0); j < 12; j++ {
			if i == j {
				continue
			}
			if d := m.Demand(i, j); d < 0 {
				t.Errorf("negative demand %v at (%d,%d)", d, i, j)
			}
		}
	}
	// The paper stresses "wide disparities in the values of the elements":
	// the fitted matrix must not be near-uniform.
	minD, maxD := math.Inf(1), 0.0
	for i := graph.NodeID(0); i < 12; i++ {
		for j := graph.NodeID(0); j < 12; j++ {
			if i == j {
				continue
			}
			d := m.Demand(i, j)
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	if maxD < 3*minD {
		t.Errorf("fitted matrix too uniform: min %v max %v", minD, maxD)
	}
}

func TestNSFNetNominalCached(t *testing.T) {
	m1, pr1, err := NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	m2, pr2, err := NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 || pr1 != pr2 {
		t.Error("NSFNetNominal should return cached singletons")
	}
}
