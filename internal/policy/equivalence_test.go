package policy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// randomDuplexGraph builds a random duplex graph on n nodes — a random
// spanning tree plus extra random duplex edges — then fails `down` random
// simplex links, so the up-link graph may be asymmetric or disconnected. All
// of it derives deterministically from seed.
func randomDuplexGraph(t *testing.T, n, extraEdges, down int, seed int64) *graph.Graph {
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
	for k := 0; k < down; k++ {
		g.SetDown(graph.LinkID(r.Intn(g.NumLinks())), true)
	}
	return g
}

// reachable is a forward BFS from src over up links: the reachability test
// the per-pair builders ran before every MinHop.
func reachable(g *graph.Graph, src, dst graph.NodeID) bool {
	seen := make([]bool, g.NumNodes())
	seen[src] = true
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range g.Out(v) {
			l := g.Link(id)
			if !l.Down && !seen[l.To] {
				seen[l.To] = true
				queue = append(queue, l.To)
			}
		}
	}
	return seen[dst]
}

// referenceMinHopK is the per-pair route-table loop: for every ordered pair a
// forward BFS reachability test, then paths.MinHop and paths.Alternates, each
// with its own reverse BFS. BuildMinHopK must reproduce it exactly.
func referenceMinHopK(g *graph.Graph, maxAltHops, maxAlternates int) (*Table, error) {
	n := g.NumNodes()
	if maxAltHops <= 0 || maxAltHops > n-1 {
		maxAltHops = n - 1
	}
	t := &Table{g: g, MaxAltHops: maxAltHops, n: n, sets: make([]*RouteSet, n*n)}
	for i := graph.NodeID(0); int(i) < n; i++ {
		for j := graph.NodeID(0); int(j) < n; j++ {
			if i == j {
				continue
			}
			if !reachable(g, i, j) {
				return nil, fmt.Errorf("policy: no path %d→%d", i, j)
			}
			primary, ok := paths.MinHop(g, i, j)
			if !ok {
				return nil, fmt.Errorf("policy: no path %d→%d", i, j)
			}
			alts := paths.Alternates(g, i, j, primary, maxAltHops)
			if maxAlternates > 0 && len(alts) > maxAlternates {
				alts = alts[:maxAlternates]
			}
			t.sets[int(i)*n+int(j)] = &RouteSet{
				Primaries:  []WeightedPath{{Path: primary, Weight: 1}},
				Alternates: alts,
			}
		}
	}
	return t, nil
}

// referenceBifurcated is BuildBifurcated's per-pair loop: every loop-free path
// from a per-pair paths.AllLoopFree, minus the pair's primaries.
func referenceBifurcated(g *graph.Graph, primaries map[[2]graph.NodeID][]WeightedPath, maxAltHops int) []*RouteSet {
	n := g.NumNodes()
	sets := make([]*RouteSet, n*n)
	for i := graph.NodeID(0); int(i) < n; i++ {
		for j := graph.NodeID(0); int(j) < n; j++ {
			if i == j {
				continue
			}
			prim := primaries[[2]graph.NodeID{i, j}]
			var alts []paths.Path
		next:
			for _, p := range paths.AllLoopFree(g, i, j, maxAltHops) {
				for _, wp := range prim {
					if p.Equal(wp.Path) {
						continue next
					}
				}
				alts = append(alts, p)
			}
			sets[int(i)*n+int(j)] = &RouteSet{Primaries: prim, Alternates: alts}
		}
	}
	return sets
}

// splitPrimaries bifurcates each pair of a connected table across its
// min-hop path and, where one exists, its first alternate.
func splitPrimaries(ref *Table) map[[2]graph.NodeID][]WeightedPath {
	prim := make(map[[2]graph.NodeID][]WeightedPath)
	for i := 0; i < ref.n; i++ {
		for j := 0; j < ref.n; j++ {
			rs := ref.sets[i*ref.n+j]
			if rs == nil {
				continue
			}
			key := [2]graph.NodeID{graph.NodeID(i), graph.NodeID(j)}
			if len(rs.Alternates) == 0 {
				prim[key] = []WeightedPath{{Path: rs.Primaries[0].Path, Weight: 1}}
				continue
			}
			prim[key] = []WeightedPath{
				{Path: rs.Primaries[0].Path, Weight: 0.25},
				{Path: rs.Alternates[0], Weight: 0.75},
			}
		}
	}
	return prim
}

// TestBuildersMatchPerPairReference checks the shared-distance builders
// against the per-pair reference on random topologies with failed links:
// identical route sets when every pair is routable, and the same first
// unroutable pair and error text when one is not.
func TestBuildersMatchPerPairReference(t *testing.T) {
	connected, disconnected := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		n := 4 + int(seed%6) // 4..9 nodes
		g := randomDuplexGraph(t, n, n, int(seed%4), seed)
		for _, h := range []int{0, 1, 2, 3, n - 1} {
			for _, maxAlt := range []int{0, 4} {
				want, wantErr := referenceMinHopK(g, h, maxAlt)
				got, err := BuildMinHopK(g, h, maxAlt)
				if wantErr != nil {
					disconnected++
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("seed %d H=%d K=%d: error %v, want %v", seed, h, maxAlt, err, wantErr)
					}
					continue
				}
				connected++
				if err != nil {
					t.Fatalf("seed %d H=%d K=%d: %v", seed, h, maxAlt, err)
				}
				if got.MaxAltHops != want.MaxAltHops || !reflect.DeepEqual(got.sets, want.sets) {
					t.Fatalf("seed %d H=%d K=%d: BuildMinHopK differs from the per-pair reference", seed, h, maxAlt)
				}
				if maxAlt != 0 {
					continue
				}
				prim := splitPrimaries(want)
				bif, err := BuildBifurcated(g, prim, h, 7)
				if err != nil {
					t.Fatalf("seed %d H=%d: BuildBifurcated: %v", seed, h, err)
				}
				if !reflect.DeepEqual(bif.sets, referenceBifurcated(g, prim, h)) {
					t.Fatalf("seed %d H=%d: BuildBifurcated differs from the per-pair reference", seed, h)
				}
			}
		}
		_, wantErr := referenceMinHopK(g, 0, 0)
		pr, err := traffic.MinHopRouting(g)
		if wantErr != nil {
			want := strings.Replace(wantErr.Error(), "policy:", "traffic:", 1)
			if err == nil || err.Error() != want {
				t.Fatalf("seed %d: MinHopRouting error %v, want %s", seed, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: MinHopRouting: %v", seed, err)
		}
		for i := graph.NodeID(0); int(i) < n; i++ {
			for j := graph.NodeID(0); int(j) < n; j++ {
				if i == j {
					continue
				}
				got, _ := pr.Path(i, j)
				want, _ := paths.MinHop(g, i, j)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %d→%d: MinHopRouting %s, MinHop %s", seed, i, j, got, want)
				}
			}
		}
	}
	if connected == 0 || disconnected == 0 {
		t.Fatalf("grid covers %d routable and %d unroutable builds; want both", connected, disconnected)
	}
}

// TestBuildMinHopFirstUnroutablePair pins the origin-major error order on a
// graph with two components: the first pair reported is 0→2.
func TestBuildMinHopFirstUnroutablePair(t *testing.T) {
	g := graph.New()
	g.AddNodes(4)
	for _, e := range [][2]graph.NodeID{{0, 1}, {2, 3}} {
		if _, _, err := g.AddDuplex(e[0], e[1], 10); err != nil {
			t.Fatal(err)
		}
	}
	_, wantErr := referenceMinHopK(g, 0, 0)
	_, err := BuildMinHop(g, 0)
	if wantErr == nil || err == nil || err.Error() != wantErr.Error() || err.Error() != "policy: no path 0→2" {
		t.Fatalf("error %v, reference %v, want policy: no path 0→2", err, wantErr)
	}
}
