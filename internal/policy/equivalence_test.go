package policy

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/netmodel"
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

// The reference route machinery below is the per-pair code the builders
// replaced, kept here verbatim in behaviour so that the equivalence tests
// do not compare the paths package with itself: a reverse BFS per
// destination, the greedy min-hop walk, and the recursive loop-free DFS
// with its (length, lexicographic) sort.

// refDistancesTo is the hop distance from every node to dst over up links
// (−1 where dst is unreachable).
func refDistancesTo(g *graph.Graph, dst graph.NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []graph.NodeID{dst}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, id := range g.In(v) {
			l := g.Link(id)
			if !l.Down && dist[l.From] < 0 {
				dist[l.From] = dist[v] + 1
				queue = append(queue, l.From)
			}
		}
	}
	return dist
}

// refMinHop walks forward greedily from src: from each node it takes the
// smallest-ID neighbour one hop closer to dst.
func refMinHop(g *graph.Graph, src, dst graph.NodeID) (paths.Path, bool) {
	if src == dst {
		return paths.Path{Nodes: []graph.NodeID{src}}, true
	}
	toDst := refDistancesTo(g, dst)
	if toDst[src] < 0 {
		return paths.Path{}, false
	}
	nodes := make([]graph.NodeID, 1, toDst[src]+1)
	nodes[0] = src
	links := make([]graph.LinkID, 0, toDst[src])
	for cur := src; cur != dst; {
		next := graph.InvalidNode
		var via graph.LinkID
		for _, id := range g.Out(cur) {
			l := g.Link(id)
			if !l.Down && toDst[l.To] == toDst[cur]-1 && (next == graph.InvalidNode || l.To < next) {
				next, via = l.To, id
			}
		}
		if next == graph.InvalidNode {
			return paths.Path{}, false
		}
		nodes = append(nodes, next)
		links = append(links, via)
		cur = next
	}
	return paths.Path{Nodes: nodes, Links: links}, true
}

// refAllLoopFree enumerates every loop-free path src→dst of at most maxHops
// hops (0 means N−1) by a recursive DFS pruned by the hop distances, then
// sorts by (length, lexicographic node sequence).
func refAllLoopFree(g *graph.Graph, src, dst graph.NodeID, maxHops int) []paths.Path {
	n := g.NumNodes()
	if src == dst {
		return nil
	}
	if maxHops <= 0 || maxHops > n-1 {
		maxHops = n - 1
	}
	toDst := refDistancesTo(g, dst)
	var out []paths.Path
	onPath := make([]bool, n)
	nodes := []graph.NodeID{src}
	links := []graph.LinkID{}
	onPath[src] = true
	var dfs func(v graph.NodeID)
	dfs = func(v graph.NodeID) {
		if v == dst {
			out = append(out, paths.Path{
				Nodes: append([]graph.NodeID(nil), nodes...),
				Links: append([]graph.LinkID(nil), links...),
			})
			return
		}
		if len(links) >= maxHops {
			return
		}
		for _, id := range g.Out(v) {
			l := g.Link(id)
			if l.Down || onPath[l.To] || toDst[l.To] < 0 || len(links)+1+toDst[l.To] > maxHops {
				continue
			}
			onPath[l.To] = true
			nodes = append(nodes, l.To)
			links = append(links, id)
			dfs(l.To)
			onPath[l.To] = false
			nodes = nodes[:len(nodes)-1]
			links = links[:len(links)-1]
		}
	}
	dfs(src)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Hops() != out[b].Hops() {
			return out[a].Hops() < out[b].Hops()
		}
		for k := range out[a].Nodes {
			if out[a].Nodes[k] != out[b].Nodes[k] {
				return out[a].Nodes[k] < out[b].Nodes[k]
			}
		}
		return false
	})
	return out
}

// referenceMinHopK is the per-pair route-table loop: for every ordered pair a
// forward BFS reachability test, then the greedy walk and the alternates —
// every loop-free path but the primary, nil when the DFS finds none —
// capped at maxAlternates. BuildMinHopK must reproduce it exactly.
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
			primary, ok := refMinHop(g, i, j)
			if !ok {
				return nil, fmt.Errorf("policy: no path %d→%d", i, j)
			}
			all := refAllLoopFree(g, i, j, maxAltHops)
			alts := all[:0]
			for _, p := range all {
				if !p.Equal(primary) {
					alts = append(alts, p)
				}
			}
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

// referenceBifurcated is BuildBifurcated's per-pair loop: every loop-free
// path from a per-pair DFS, minus the pair's primaries (nil when none is
// left).
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
			for _, p := range refAllLoopFree(g, i, j, maxAltHops) {
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

// checkBuilders compares BuildMinHopK (and, uncapped, BuildBifurcated over
// split primaries) with the per-pair reference at one (H, K): identical
// route sets when every pair is routable, the same first unroutable pair
// and error text when one is not. It reports whether g was routable.
func checkBuilders(t *testing.T, name string, g *graph.Graph, h, maxAlt int) bool {
	t.Helper()
	want, wantErr := referenceMinHopK(g, h, maxAlt)
	got, err := BuildMinHopK(g, h, maxAlt)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s H=%d K=%d: error %v, want %v", name, h, maxAlt, err, wantErr)
		}
		return false
	}
	if err != nil {
		t.Fatalf("%s H=%d K=%d: %v", name, h, maxAlt, err)
	}
	if got.MaxAltHops != want.MaxAltHops || !reflect.DeepEqual(got.sets, want.sets) {
		t.Fatalf("%s H=%d K=%d: BuildMinHopK differs from the per-pair reference", name, h, maxAlt)
	}
	if maxAlt == 0 {
		prim := splitPrimaries(want)
		bif, err := BuildBifurcated(g, prim, h, 7)
		if err != nil {
			t.Fatalf("%s H=%d: BuildBifurcated: %v", name, h, err)
		}
		if !reflect.DeepEqual(bif.sets, referenceBifurcated(g, prim, h)) {
			t.Fatalf("%s H=%d: BuildBifurcated differs from the per-pair reference", name, h)
		}
	}
	return true
}

// checkMinHopRouting compares traffic.MinHopRouting and paths.MinHop with
// the reference walk on every ordered pair.
func checkMinHopRouting(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	n := g.NumNodes()
	_, wantErr := referenceMinHopK(g, 0, 0)
	pr, err := traffic.MinHopRouting(g)
	if wantErr != nil {
		want := strings.Replace(wantErr.Error(), "policy:", "traffic:", 1)
		if err == nil || err.Error() != want {
			t.Fatalf("%s: MinHopRouting error %v, want %s", name, err, want)
		}
	} else if err != nil {
		t.Fatalf("%s: MinHopRouting: %v", name, err)
	}
	for i := graph.NodeID(0); int(i) < n; i++ {
		for j := graph.NodeID(0); int(j) < n; j++ {
			want, wantOK := refMinHop(g, i, j)
			got, ok := paths.MinHop(g, i, j)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %d→%d: MinHop %s (%v), reference %s (%v)", name, i, j, got, ok, want, wantOK)
			}
			if i == j || wantErr != nil {
				continue
			}
			if got, _ := pr.Path(i, j); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %d→%d: MinHopRouting %s, reference %s", name, i, j, got, want)
			}
		}
	}
}

// TestBuildersMatchPerPairReference checks the builders against the
// per-pair reference on random topologies with failed links, some of them
// disconnected.
func TestBuildersMatchPerPairReference(t *testing.T) {
	connected, disconnected := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		n := 4 + int(seed%6) // 4..9 nodes
		g := randomDuplexGraph(t, n, n, int(seed%4), seed)
		name := fmt.Sprintf("seed %d", seed)
		for _, h := range []int{0, 1, 2, 3, n - 1} {
			for _, maxAlt := range []int{0, 4} {
				if checkBuilders(t, name, g, h, maxAlt) {
					connected++
				} else {
					disconnected++
				}
			}
		}
		checkMinHopRouting(t, name, g)
	}
	if connected == 0 || disconnected == 0 {
		t.Fatalf("grid covers %d routable and %d unroutable builds; want both", connected, disconnected)
	}
}

// TestBuildersMatchReferenceOnNamedTopologies runs the same comparison on
// the topologies the experiments build tables for: a 15-node metro and
// NSFNet, at H = 1, 2 and the paper's 11, uncapped and with K caps.
func TestBuildersMatchReferenceOnNamedTopologies(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"metro15", netmodel.Metro(5, 3, 10, 20)},
		{"nsfnet", netmodel.NSFNet()},
	} {
		for _, h := range []int{1, 2, 11} {
			for _, maxAlt := range []int{0, 1, 3} {
				if !checkBuilders(t, c.name, c.g, h, maxAlt) {
					t.Fatalf("%s is not routable", c.name)
				}
			}
		}
		checkMinHopRouting(t, c.name, c.g)
	}
}

// FuzzBuildMinHopMatchesReference draws the graph (seed, node count, extra
// edges, failed links) and the table's H and K, and compares the builders
// with the per-pair reference.
func FuzzBuildMinHopMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(6), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(9), uint8(12), uint8(3), uint8(2), uint8(2))
	f.Add(int64(3), uint8(5), uint8(0), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nodes, extra, down, h, maxAlt uint8) {
		n := 2 + int(nodes)%9 // 2..10 nodes
		g := randomDuplexGraph(t, n, int(extra)%(2*n+1), int(down)%(n+1), seed)
		name := fmt.Sprintf("seed %d n=%d", seed, n)
		checkBuilders(t, name, g, int(h)%(n+1), int(maxAlt)%5)
		checkMinHopRouting(t, name, g)
	})
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
