// Package traffic models offered loads: the O-D traffic matrix T (Erlangs),
// the induced per-link primary demand Λ^k of the paper's Equation 1, linear
// load scaling, and reconstruction of the NSFNet nominal matrix from the
// published per-link loads of Table 1 (the matrix itself is missing from the
// available paper text; see DESIGN.md §5).
package traffic

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/paths"
)

// Matrix is a dense O-D traffic matrix: Demand(i,j) is the offered load in
// Erlangs from origin i to destination j. The diagonal is always zero.
type Matrix struct {
	n int
	d []float64
}

// NewMatrix returns an all-zero n×n matrix.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic(fmt.Errorf("traffic: negative size %d", n))
	}
	return &Matrix{n: n, d: make([]float64, n*n)}
}

// Size returns the node count n.
func (m *Matrix) Size() int { return m.n }

// Demand returns T(i,j).
func (m *Matrix) Demand(i, j graph.NodeID) float64 {
	m.check(i, j)
	return m.d[int(i)*m.n+int(j)]
}

// SetDemand sets T(i,j). Setting the diagonal or a negative or non-finite
// demand panics.
func (m *Matrix) SetDemand(i, j graph.NodeID, v float64) {
	m.check(i, j)
	if i == j {
		panic(fmt.Errorf("traffic: diagonal demand %d→%d", i, j))
	}
	checkDemand(v)
	m.d[int(i)*m.n+int(j)] = v
}

// checkDemand is the one rule for a stored demand: finite and
// non-negative. A violation panics.
func checkDemand(v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Errorf("traffic: invalid demand %v", v))
	}
}

func (m *Matrix) check(i, j graph.NodeID) {
	if i < 0 || int(i) >= m.n || j < 0 || int(j) >= m.n {
		panic(fmt.Errorf("traffic: index (%d,%d) out of range for %d nodes", i, j, m.n))
	}
}

// Total returns the network-wide offered load Σ T(i,j) in Erlangs.
func (m *Matrix) Total() float64 {
	t := 0.0
	for _, v := range m.d {
		t += v
	}
	return t
}

// Scaled returns a copy of the matrix with every entry multiplied by factor.
// The paper's load sweeps scale the nominal matrix linearly (§4.2.2). A
// product that overflows to infinity panics, by SetDemand's rule.
func (m *Matrix) Scaled(factor float64) *Matrix {
	if factor < 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Errorf("traffic: invalid scale factor %v", factor))
	}
	out := NewMatrix(m.n)
	for i, v := range m.d {
		out.d[i] = v * factor
		checkDemand(out.d[i])
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.n)
	copy(out.d, m.d)
	return out
}

// Uniform returns an n×n matrix with every off-diagonal entry set to demand.
// This is the symmetric workload of the quadrangle experiment (§4.1), where
// the per-pair demand equals the per-link primary load because every primary
// path is the one-hop direct link.
func Uniform(n int, demand float64) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.SetDemand(graph.NodeID(i), graph.NodeID(j), demand)
			}
		}
	}
	return m
}

// MetroLocality returns the locality-weighted workload for a
// netmodel.Metro topology of pops×popSize nodes: every ordered pair
// inside one pop demands intra Erlangs, every cross-pop pair inter. With
// inter ≪ intra the cross-pop pairs — the only calls that ride the
// gateway trunks — are a small fraction of the load, mirroring how
// metropolitan traffic concentrates inside a point of presence. altbench's
// metro-stream workload feeds this matrix to sim.NewStream.
func MetroLocality(pops, popSize int, intra, inter float64) *Matrix {
	n := pops * popSize
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := inter
			if i/popSize == j/popSize {
				d = intra
			}
			m.SetDemand(graph.NodeID(i), graph.NodeID(j), d)
		}
	}
	return m
}

// PrimaryRouting holds one primary path per ordered O-D pair.
type PrimaryRouting struct {
	n     int
	route map[[2]graph.NodeID]paths.Path
}

// MinHopRouting computes the deterministic minimum-hop primary path for
// every ordered pair of distinct nodes (the paper's demonstration SI rule).
// It returns an error if any pair is unreachable.
func MinHopRouting(g *graph.Graph) (*PrimaryRouting, error) {
	n := g.NumNodes()
	pr := &PrimaryRouting{n: n, route: make(map[[2]graph.NodeID]paths.Path, n*(n-1))}
	trees := paths.AllTrees(g)
	for i := graph.NodeID(0); int(i) < n; i++ {
		for j := graph.NodeID(0); int(j) < n; j++ {
			if i == j {
				continue
			}
			p, ok := trees[j].Path(i)
			if !ok {
				return nil, fmt.Errorf("traffic: no path %d→%d", i, j)
			}
			pr.route[[2]graph.NodeID{i, j}] = p
		}
	}
	return pr, nil
}

// Path returns the primary path for the ordered pair (i, j).
func (pr *PrimaryRouting) Path(i, j graph.NodeID) (paths.Path, bool) {
	p, ok := pr.route[[2]graph.NodeID{i, j}]
	return p, ok
}

// Pairs returns the number of routed ordered pairs.
func (pr *PrimaryRouting) Pairs() int { return len(pr.route) }

// LinkLoads computes the primary traffic demand Λ^k on every link
// (Equation 1): the sum of T(i,j) over all pairs whose primary path
// traverses link k. The result is indexed by LinkID.
func LinkLoads(g *graph.Graph, m *Matrix, pr *PrimaryRouting) []float64 {
	loads := make([]float64, g.NumLinks())
	// Iterate pairs in (origin, dest) order, never map order: the per-link
	// float sums must accumulate in a fixed order to be bit-identical from
	// process to process.
	for i := graph.NodeID(0); int(i) < pr.n; i++ {
		for j := graph.NodeID(0); int(j) < pr.n; j++ {
			p, ok := pr.route[[2]graph.NodeID{i, j}]
			if !ok {
				continue
			}
			d := m.Demand(i, j)
			if d == 0 {
				continue
			}
			for _, id := range p.Links {
				loads[id] += d
			}
		}
	}
	return loads
}
