package paths

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// randomConnectedGraph builds a random duplex graph on n nodes: a random
// spanning tree for connectivity plus extra random duplex edges, all derived
// deterministically from seed.
func randomConnectedGraph(t *testing.T, n int, extraEdges int, seed int64) *graph.Graph {
	t.Helper()
	g := graph.New()
	g.AddNodes(n)
	r := xrand.New(seed)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		a := graph.NodeID(perm[i])
		b := graph.NodeID(perm[r.Intn(i)])
		if _, _, err := g.AddDuplex(a, b, 10); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < extraEdges; e++ {
		a := graph.NodeID(r.Intn(n))
		b := graph.NodeID(r.Intn(n))
		if a == b || g.LinkBetween(a, b) != graph.InvalidLink {
			continue
		}
		if _, _, err := g.AddDuplex(a, b, 10); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestMinHopIsFirstEnumerated checks the primary-selection invariant on
// random graphs: MinHop returns exactly the first path of the sorted
// exhaustive enumeration.
func TestMinHopIsFirstEnumerated(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		n := 5 + int(seed%5)
		g := randomConnectedGraph(t, n, n/2, seed)
		for src := graph.NodeID(0); int(src) < n; src++ {
			for dst := graph.NodeID(0); int(dst) < n; dst++ {
				if src == dst {
					continue
				}
				mh, ok := MinHop(g, src, dst)
				if !ok {
					t.Fatalf("seed %d: no path %d→%d in connected graph", seed, src, dst)
				}
				all := AllLoopFree(g, src, dst, 0)
				if len(all) == 0 || !all[0].Equal(mh) {
					t.Fatalf("seed %d %d→%d: MinHop %s != first enumerated %s",
						seed, src, dst, mh, all[0])
				}
			}
		}
	}
}

// TestHopLimitConsistency: AllLoopFree with limit h must equal the unlimited
// enumeration filtered to <= h hops.
func TestHopLimitConsistency(t *testing.T) {
	for seed := int64(200); seed < 210; seed++ {
		n := 6
		g := randomConnectedGraph(t, n, 4, seed)
		for h := 1; h < n; h++ {
			limited := AllLoopFree(g, 0, graph.NodeID(n-1), h)
			var filtered []Path
			for _, p := range AllLoopFree(g, 0, graph.NodeID(n-1), 0) {
				if p.Hops() <= h {
					filtered = append(filtered, p)
				}
			}
			if len(limited) != len(filtered) {
				t.Fatalf("seed %d h=%d: %d vs %d paths", seed, h, len(limited), len(filtered))
			}
			for i := range limited {
				if !limited[i].Equal(filtered[i]) {
					t.Fatalf("seed %d h=%d path %d differs", seed, h, i)
				}
			}
		}
	}
}
