package bound

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/traffic"
)

// exhaustiveBound is the reference ErlangBound: every cut evaluated with
// both Erlang-B recursions, no pruning. ErlangBound must return a Result
// == to it, down to the float bits and the first maximizing cut.
func exhaustiveBound(g *graph.Graph, m *traffic.Matrix) (Result, error) {
	if g.NumNodes() != m.Size() {
		return Result{}, fmt.Errorf("bound: matrix size %d for %d nodes", m.Size(), g.NumNodes())
	}
	if g.NumNodes() > 30 {
		return Result{}, fmt.Errorf("bound: exact enumeration limited to 30 nodes (got %d)", g.NumNodes())
	}
	total := m.Total()
	if total <= 0 {
		return Result{}, fmt.Errorf("bound: no offered traffic")
	}
	best := Result{Blocking: -1}
	g.ForEachCut(func(c graph.Cut) bool {
		var fwdT, bwdT float64
		n := g.NumNodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				d := m.Demand(graph.NodeID(i), graph.NodeID(j))
				if d == 0 {
					continue
				}
				iIn := c.Contains(graph.NodeID(i))
				jIn := c.Contains(graph.NodeID(j))
				switch {
				case iIn && !jIn:
					fwdT += d
				case !iIn && jIn:
					bwdT += d
				}
			}
		}
		fwdC, bwdC := g.CrossingCapacity(c)
		val := 0.0
		if fwdT > 0 {
			val += fwdT / total * erlang.B(fwdT, fwdC)
		}
		if bwdT > 0 {
			val += bwdT / total * erlang.B(bwdT, bwdC)
		}
		if val > best.Blocking {
			best = Result{
				Blocking:        val,
				Cut:             c,
				ForwardTraffic:  fwdT,
				BackwardTraffic: bwdT,
				ForwardCapacity: fwdC, BackwardCapacity: bwdC,
			}
		}
		return true
	})
	if best.Blocking < 0 {
		best.Blocking = 0
	}
	return best, nil
}

// checkMatchesExhaustive fails the test unless ErlangBound and the
// reference agree: both error, or both return the identical Result.
func checkMatchesExhaustive(t *testing.T, label string, g *graph.Graph, m *traffic.Matrix) {
	t.Helper()
	got, err := ErlangBound(g, m)
	want, wantErr := exhaustiveBound(g, m)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", label, err, wantErr)
	}
	if got != want {
		t.Fatalf("%s: ErlangBound %+v (blocking bits %#x), reference %+v (bits %#x)",
			label, got, math.Float64bits(got.Blocking), want, math.Float64bits(want.Blocking))
	}
}

// The paper's bound inputs: NSFNet at the 12 loads 5…16 of the nominal
// matrix (Figures 6/7), the same with each §4 failure scenario applied,
// and the symmetric quadrangle, whose equal-sized cuts tie exactly.
func TestErlangBoundMatchesExhaustive(t *testing.T) {
	nominal, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"nsfnet": netmodel.NSFNet()}
	for name, ends := range netmodel.NSFNetFailureScenarios() {
		g := netmodel.NSFNet()
		if err := g.SetDuplexDown(ends[0], ends[1], true); err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	for name, g := range graphs {
		for load := 5.0; load <= 16; load++ {
			checkMatchesExhaustive(t, fmt.Sprintf("%s load %v", name, load), g, nominal.Scaled(load/10))
		}
	}
	quad := netmodel.Quadrangle()
	for rho := 70.0; rho <= 110; rho += 5 {
		checkMatchesExhaustive(t, fmt.Sprintf("quadrangle %v E", rho), quad, traffic.Uniform(4, rho))
	}
}

// FuzzErlangBoundMatchesExhaustive checks ErlangBound against the
// reference on drawn networks of 2–10 nodes. Each ordered pair gets a link
// (capacity 0–60) or none, so there are one-way links, antiparallel links
// of unequal capacity and cuts crossed by many links; downMask fails links,
// down to cuts with no crossing capacity; zeroRows silences origins; the
// demand scale is log-uniform over 0.01–500 E. Symmetric draws (a complete
// mesh of equal capacities at uniform load) make equal-sized cuts tie
// exactly, so the first maximizer must survive the pruning.
func FuzzErlangBoundMatchesExhaustive(f *testing.F) {
	f.Add(uint8(2), false, uint16(0x8000), uint64(0), uint16(0), []byte{0x91, 0x2d}, []byte{40, 200})
	f.Add(uint8(2), true, uint16(0xa000), uint64(0), uint16(0), []byte{0x91}, []byte{1})
	f.Add(uint8(10), false, uint16(0xc000), uint64(0x0f0f0f0f), uint16(0x05), []byte{0x51, 0x02, 0xf3, 0x00, 0x66}, []byte{0, 17, 255, 3, 90, 128})
	f.Add(uint8(7), false, uint16(0x2000), uint64(0xffffffff00000000), uint16(0x40), []byte{0xff, 0x13, 0x00}, []byte{5, 0, 250})
	f.Fuzz(func(t *testing.T, nodes uint8, symmetric bool, scale uint16, downMask uint64, zeroRows uint16, caps, dem []byte) {
		n := 2 + int(nodes)%9
		perPair := 0.01 * math.Pow(50000, float64(scale)/math.MaxUint16)
		g := graph.New()
		g.AddNodes(n)
		m := traffic.NewMatrix(n)
		k := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				from, to := graph.NodeID(i), graph.NodeID(j)
				var c, d byte = 0xf1, 255
				if !symmetric && len(caps) > 0 {
					c = caps[k%len(caps)] ^ byte(k/len(caps))
				}
				if !symmetric && len(dem) > 0 {
					d = dem[k%len(dem)] + byte(3*(k/len(dem)))
				}
				k++
				if c&3 != 0 {
					if _, err := g.AddLink(from, to, int(c>>2)%61); err != nil {
						t.Fatal(err)
					}
				}
				if zeroRows&(1<<i) == 0 && d%7 != 0 {
					m.SetDemand(from, to, perPair*float64(d)/255)
				}
			}
		}
		for id := 0; id < g.NumLinks(); id++ {
			if downMask&(1<<(id%64)) != 0 {
				g.SetDown(graph.LinkID(id), true)
			}
		}
		checkMatchesExhaustive(t, fmt.Sprintf("%d nodes, %.4g E per pair", n, perPair), g, m)
	})
}

// The bound divides every crossing load by the total; a total that
// overflows must be reported, not divided into (where every share read 0
// and the bound came out 0 for an unboundedly overloaded network).
func TestErlangBoundNonFiniteTotal(t *testing.T) {
	g := graph.New()
	g.AddNodes(2)
	if _, _, err := g.AddDuplex(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 1e308)
	m.SetDemand(1, 0, 1e308)
	if res, err := ErlangBound(g, m); err == nil {
		t.Errorf("total overflows to +Inf: got %+v, want error", res)
	}
}

// BenchmarkErlangBound times the bound alone. nsfnet-12loads is one
// figure's worth per op: the 12 loads 5…16 of the nominal NSFNet matrix,
// 2,047 cuts each; quadrangle is one call at 100 E per pair. The only
// allocation is each call's n×n slab of demands and capacities.
func BenchmarkErlangBound(b *testing.B) {
	nominal, _, err := traffic.NSFNetNominal()
	if err != nil {
		b.Fatal(err)
	}
	var loads []*traffic.Matrix
	for load := 5.0; load <= 16; load++ {
		loads = append(loads, nominal.Scaled(load/10))
	}
	cases := []struct {
		name string
		g    *graph.Graph
		ms   []*traffic.Matrix
	}{
		{"nsfnet-12loads", netmodel.NSFNet(), loads},
		{"quadrangle", netmodel.Quadrangle(), []*traffic.Matrix{traffic.Uniform(4, 100)}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range c.ms {
					res, err := ErlangBound(c.g, m)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = res
				}
			}
		})
	}
}

var benchSink Result
