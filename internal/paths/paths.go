// Package paths computes the primary and alternate routes consumed by the
// two-tier routing scheme: minimum-hop primary paths (the paper's
// demonstration SI rule), exhaustive loop-free alternate-path enumeration in
// order of increasing hop length, and Yen's K-shortest-paths algorithm for
// larger topologies.
package paths

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Path is a loop-free directed route: the node sequence visited and the link
// IDs traversed (len(Links) == len(Nodes)−1 == hop count).
type Path struct {
	Nodes []graph.NodeID
	Links []graph.LinkID
}

// Hops returns the hop count of the path.
func (p Path) Hops() int { return len(p.Links) }

// Origin returns the first node, or graph.InvalidNode for an empty path.
func (p Path) Origin() graph.NodeID {
	if len(p.Nodes) == 0 {
		return graph.InvalidNode
	}
	return p.Nodes[0]
}

// Destination returns the last node, or graph.InvalidNode for an empty path.
func (p Path) Destination() graph.NodeID {
	if len(p.Nodes) == 0 {
		return graph.InvalidNode
	}
	return p.Nodes[len(p.Nodes)-1]
}

// Equal reports whether two paths visit the same node sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	return Path{
		Nodes: append([]graph.NodeID(nil), p.Nodes...),
		Links: append([]graph.LinkID(nil), p.Links...),
	}
}

// String renders the node sequence, e.g. "0→5→6".
func (p Path) String() string {
	s := ""
	for i, n := range p.Nodes {
		if i > 0 {
			s += "→"
		}
		s += fmt.Sprintf("%d", int(n))
	}
	return s
}

// compare orders paths by (hop count, lexicographic node sequence); this is
// the deterministic tie-break used to make "the" minimum-hop primary path
// unique and to order alternates of equal length.
func compare(a, b Path) int {
	if len(a.Links) != len(b.Links) {
		return len(a.Links) - len(b.Links)
	}
	return slices.Compare(a.Nodes, b.Nodes)
}

// Sort orders paths in place by (length, lexicographic node sequence).
func Sort(ps []Path) { slices.SortFunc(ps, compare) }

// Tree is the min-hop tree toward one destination. Dist[v] is v's hop
// distance to the destination over up links (−1 where it is unreachable);
// each node's next hop is its up out-link to the smallest-ID neighbour one
// hop closer. Following the next hops from a node traces the
// lexicographically smallest of its shortest paths, the paper's
// demonstration SI primary.
type Tree struct {
	Dist  []int
	next  []graph.LinkID // InvalidLink at the destination and where it is unreachable
	links []graph.Link   // the graph's link view, to follow next
}

// TreeTo returns the min-hop tree toward dst.
func TreeTo(g *graph.Graph, dst graph.NodeID) Tree {
	n := g.NumNodes()
	t := Tree{Dist: make([]int, n), next: make([]graph.LinkID, n), links: g.LinkView()}
	t.fill(g, dst, make([]graph.NodeID, 0, n), nil)
	return t
}

// AllTrees returns TreeTo(g, d) for every node d, indexed by d. The rows
// share two n×n slabs and one BFS queue, so a builder that routes every
// ordered pair pays for n reverse BFS passes in total.
func AllTrees(g *graph.Graph) []Tree {
	n := g.NumNodes()
	dist := make([]int, n*n)
	next := make([]graph.LinkID, n*n)
	queue := make([]graph.NodeID, 0, n)
	trees := make([]Tree, n)
	for d := range trees {
		trees[d] = Tree{
			Dist:  dist[d*n : (d+1)*n : (d+1)*n],
			next:  next[d*n : (d+1)*n : (d+1)*n],
			links: g.LinkView(),
		}
		trees[d].fill(g, graph.NodeID(d), queue, nil)
	}
	return trees
}

// fill derives the tree toward dst in one reverse BFS over the up links
// that b (nil for none) does not ban, using queue's backing array as the
// FIFO. It is the one home of the next-hop rule: every node one hop closer
// than u is dequeued while u's distance is settled, and each offers its
// in-link from u once, so comparing offers keeps the smallest-ID neighbour
// (links are unique per ordered pair).
func (t Tree) fill(g *graph.Graph, dst graph.NodeID, queue []graph.NodeID, b *ban) {
	for i := range t.Dist {
		t.Dist[i] = -1
		t.next[i] = graph.InvalidLink
	}
	t.Dist[dst] = 0
	queue = append(queue[:0], dst)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, id := range g.In(v) {
			l := &t.links[id]
			if l.Down || b != nil && (b.links[id] || b.nodes[l.From]) {
				continue
			}
			u := l.From
			switch {
			case t.Dist[u] < 0:
				t.Dist[u] = t.Dist[v] + 1
				t.next[u] = id
				queue = append(queue, u)
			case t.Dist[u] == t.Dist[v]+1 && v < t.links[t.next[u]].To:
				t.next[u] = id
			}
		}
	}
}

// Path returns the min-hop path from src to the tree's destination, or
// ok=false if src is not a node or the destination is unreachable from it.
func (t Tree) Path(src graph.NodeID) (Path, bool) {
	if uint(src) >= uint(len(t.Dist)) || t.Dist[src] < 0 {
		return Path{}, false
	}
	h := t.Dist[src]
	if h == 0 {
		return Path{Nodes: []graph.NodeID{src}}, true
	}
	return t.PathInto(src, make([]graph.NodeID, h+1), make([]graph.LinkID, h)), true
}

// PathInto is Path writing into caller-owned storage, for a src that
// reaches the destination: nodes must have length Dist[src]+1 and links
// length Dist[src]. The returned path is those two slices.
func (t Tree) PathInto(src graph.NodeID, nodes []graph.NodeID, links []graph.LinkID) Path {
	v := src
	nodes[0] = v
	for k := range links {
		id := t.next[v]
		links[k] = id
		v = t.links[id].To
		nodes[k+1] = v
	}
	return Path{Nodes: nodes, Links: links}
}

// MinHop returns the minimum-hop path from src to dst over up links, with
// lexicographic tie-breaking, or ok=false if dst is unreachable. It is the
// one-pair form of TreeTo: one reverse BFS from dst, then the walk.
func MinHop(g *graph.Graph, src, dst graph.NodeID) (Path, bool) {
	if !inRange(g, src, dst) {
		return Path{}, false
	}
	return TreeTo(g, dst).Path(src)
}

// inRange reports whether src and dst are both nodes of g.
func inRange(g *graph.Graph, src, dst graph.NodeID) bool {
	n := g.NumNodes()
	return src >= 0 && dst >= 0 && int(src) < n && int(dst) < n
}

// LoopFree enumerates the loop-free paths of at most a hop limit H over up
// links. The enumeration is an exact depth-first search with an on-path
// marker, pruned by the destination's hop distances: a partial path at
// node v with h hops used can only reach the destination within budget if
// h + toDst[v] <= H. Its cost is therefore set by the number of paths
// within the hop limit, not by the graph size — cheap on a large sparse
// topology under a tight H, exponential on a dense one with H near N−1.
// The search scratch persists across calls, so a builder that enumerates
// every pair of a table allocates only the paths it keeps.
type LoopFree struct {
	g       *graph.Graph
	links   []graph.Link
	maxHops int
	onPath  []bool
	nodes   []graph.NodeID // the partial path
	via     []graph.LinkID
	// Paths found so far: their nodes and links concatenated, and hop counts.
	foundNodes []graph.NodeID
	foundLinks []graph.LinkID
	foundHops  []int
	found      []Path // views of the found paths, for sorting
}

// NewLoopFree returns an enumerator over g with hop limit maxHops; 0 (or
// anything beyond N−1) means N−1, the bound on any loop-free path.
func NewLoopFree(g *graph.Graph, maxHops int) *LoopFree {
	n := g.NumNodes()
	if maxHops <= 0 || maxHops > n-1 {
		maxHops = n - 1
	}
	return &LoopFree{g: g, links: g.LinkView(), maxHops: maxHops, onPath: make([]bool, n)}
}

// Paths returns the loop-free paths from src to dst within the hop limit,
// sorted by (length, lexicographic node sequence), leaving out every path
// skip reports true for (skip may be nil) and keeping at most the first
// keep of the rest (keep <= 0 keeps all). toDst must be the destination's
// Tree.Dist. The result is nil when no path is within the limit; otherwise
// it and its paths' nodes and links are three allocations of exact size.
func (e *LoopFree) Paths(src, dst graph.NodeID, toDst []int, skip func(Path) bool, keep int) []Path {
	// Every path from src has at least toDst[src] hops.
	if src == dst || toDst[src] < 0 || toDst[src] > e.maxHops {
		return nil
	}
	e.foundNodes, e.foundLinks, e.foundHops = e.foundNodes[:0], e.foundLinks[:0], e.foundHops[:0]
	e.nodes, e.via = append(e.nodes[:0], src), e.via[:0]
	e.onPath[src] = true
	e.dfs(src, dst, toDst)
	e.onPath[src] = false
	if len(e.foundHops) == 0 {
		return nil
	}
	e.found = e.found[:0]
	nodes, links := 0, 0
	for _, h := range e.foundHops {
		e.found = append(e.found, Path{
			Nodes: e.foundNodes[nodes : nodes+h+1],
			Links: e.foundLinks[links : links+h],
		})
		nodes, links = nodes+h+1, links+h
	}
	Sort(e.found)
	kept := e.found[:0]
	for _, p := range e.found {
		if keep > 0 && len(kept) == keep {
			break
		}
		if skip == nil || !skip(p) {
			kept = append(kept, p)
		}
	}
	nodes, links = 0, 0
	for _, p := range kept {
		nodes, links = nodes+len(p.Nodes), links+len(p.Links)
	}
	out := make([]Path, len(kept))
	nodeSlab := make([]graph.NodeID, nodes)
	linkSlab := make([]graph.LinkID, links)
	for k, p := range kept {
		nn, nl := len(p.Nodes), len(p.Links)
		out[k] = Path{Nodes: nodeSlab[:nn:nn], Links: linkSlab[:nl:nl]}
		copy(out[k].Nodes, p.Nodes)
		copy(out[k].Links, p.Links)
		nodeSlab, linkSlab = nodeSlab[nn:], linkSlab[nl:]
	}
	return out
}

// dfs extends the partial path, which ends at v, toward dst.
func (e *LoopFree) dfs(v, dst graph.NodeID, toDst []int) {
	if v == dst {
		e.foundNodes = append(e.foundNodes, e.nodes...)
		e.foundLinks = append(e.foundLinks, e.via...)
		e.foundHops = append(e.foundHops, len(e.via))
		return
	}
	h := len(e.via)
	for _, id := range e.g.Out(v) {
		l := &e.links[id]
		if l.Down || e.onPath[l.To] {
			continue
		}
		if d := toDst[l.To]; d < 0 || h+1+d > e.maxHops {
			continue
		}
		e.onPath[l.To] = true
		e.nodes = append(e.nodes, l.To)
		e.via = append(e.via, id)
		e.dfs(l.To, dst, toDst)
		e.onPath[l.To] = false
		e.nodes = e.nodes[:h+1]
		e.via = e.via[:h]
	}
}

// AllLoopFree enumerates every loop-free path from src to dst over up links
// with at most maxHops hops, sorted by (length, lexicographic). maxHops <= 0
// means no limit (bounded anyway by N−1 for loop-free paths). It is the
// one-pair form of LoopFree.
func AllLoopFree(g *graph.Graph, src, dst graph.NodeID, maxHops int) []Path {
	if !inRange(g, src, dst) {
		return nil
	}
	return NewLoopFree(g, maxHops).Paths(src, dst, TreeTo(g, dst).Dist, nil, 0)
}

// Alternates returns the loop-free alternate paths for the O-D pair in
// attempt order: all loop-free paths of at most maxHops hops, sorted by
// increasing length, with the primary path removed. This is the suite a
// blocked call tries successively (§1 of the paper).
func Alternates(g *graph.Graph, src, dst graph.NodeID, primary Path, maxHops int) []Path {
	if !inRange(g, src, dst) {
		return nil
	}
	return NewLoopFree(g, maxHops).Paths(src, dst, TreeTo(g, dst).Dist, primary.Equal, 0)
}

// Validate checks structural integrity of a path against the graph: node and
// link sequences are consistent, links are up, and no node repeats.
func Validate(g *graph.Graph, p Path) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("paths: empty path")
	}
	if len(p.Links) != len(p.Nodes)-1 {
		return fmt.Errorf("paths: %d links for %d nodes", len(p.Links), len(p.Nodes))
	}
	seen := make(map[graph.NodeID]bool, len(p.Nodes))
	for i, nd := range p.Nodes {
		if seen[nd] {
			return fmt.Errorf("paths: node %d repeats", nd)
		}
		seen[nd] = true
		if i == 0 {
			continue
		}
		l := g.Link(p.Links[i-1])
		if l.From != p.Nodes[i-1] || l.To != nd {
			return fmt.Errorf("paths: link %d is %d→%d, path expects %d→%d",
				l.ID, l.From, l.To, p.Nodes[i-1], nd)
		}
		if l.Down {
			return fmt.Errorf("paths: link %d is down", l.ID)
		}
	}
	return nil
}
