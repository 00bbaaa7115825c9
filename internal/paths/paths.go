// Package paths computes the primary and alternate routes consumed by the
// two-tier routing scheme: minimum-hop primary paths (the paper's
// demonstration SI rule), exhaustive loop-free alternate-path enumeration in
// order of increasing hop length, and Yen's K-shortest-paths algorithm for
// larger topologies.
package paths

import (
	"fmt"
	"sort"

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

// less orders paths by (hop count, lexicographic node sequence); this is the
// deterministic tie-break used to make "the" minimum-hop primary path unique
// and to order alternates of equal length.
func less(a, b Path) bool {
	if len(a.Links) != len(b.Links) {
		return len(a.Links) < len(b.Links)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return a.Nodes[i] < b.Nodes[i]
		}
	}
	return false
}

// Sort orders paths in place by (length, lexicographic node sequence).
func Sort(ps []Path) {
	sort.Slice(ps, func(i, j int) bool { return less(ps[i], ps[j]) })
}

// MinHop returns the minimum-hop path from src to dst over up links, with
// lexicographic tie-breaking, or ok=false if dst is unreachable. It is the
// one-pair form of MinHopWith: one reverse BFS from dst, then the greedy walk.
func MinHop(g *graph.Graph, src, dst graph.NodeID) (Path, bool) {
	if !inRange(g, src, dst) {
		return Path{}, false
	}
	return MinHopWith(g, src, dst, DistancesTo(g, dst))
}

// MinHopWith is MinHop over a precomputed toDst = DistancesTo(g, dst), so a
// caller routing every source to dst pays for one reverse BFS, not one per
// pair. dst is reachable exactly when toDst[src] >= 0. The walk then goes
// forward greedily: from each node it takes the smallest-ID neighbour one hop
// closer to dst, which yields the lexicographically smallest shortest path.
func MinHopWith(g *graph.Graph, src, dst graph.NodeID, toDst []int) (Path, bool) {
	if !inRange(g, src, dst) {
		return Path{}, false
	}
	if src == dst {
		return Path{Nodes: []graph.NodeID{src}}, true
	}
	if toDst[src] < 0 {
		return Path{}, false
	}
	nodes := make([]graph.NodeID, 1, toDst[src]+1)
	nodes[0] = src
	links := make([]graph.LinkID, 0, toDst[src])
	cur := src
	for cur != dst {
		next := graph.InvalidNode
		var via graph.LinkID
		for _, id := range g.Out(cur) {
			l := g.Link(id)
			if l.Down {
				continue
			}
			if toDst[l.To] == toDst[cur]-1 {
				if next == graph.InvalidNode || l.To < next {
					next = l.To
					via = id
				}
			}
		}
		if next == graph.InvalidNode {
			return Path{}, false // toDst is not DistancesTo(g, dst)
		}
		nodes = append(nodes, next)
		links = append(links, via)
		cur = next
	}
	return Path{Nodes: nodes, Links: links}, true
}

// inRange reports whether src and dst are both nodes of g.
func inRange(g *graph.Graph, src, dst graph.NodeID) bool {
	n := g.NumNodes()
	return src >= 0 && dst >= 0 && int(src) < n && int(dst) < n
}

// DistancesTo returns the hop distance from every node to dst over up links
// (−1 where dst is unreachable): one BFS over the reversed links.
func DistancesTo(g *graph.Graph, dst graph.NodeID) []int {
	dist := make([]int, g.NumNodes())
	distancesTo(g, dst, dist, make([]graph.NodeID, 0, len(dist)))
	return dist
}

// AllDistancesTo returns DistancesTo(g, d) for every node d, indexed by d.
// The n rows share one n×n allocation and one BFS queue, so a builder that
// routes every ordered pair pays n reverse BFS passes in total.
func AllDistancesTo(g *graph.Graph) [][]int {
	n := g.NumNodes()
	slab := make([]int, n*n)
	queue := make([]graph.NodeID, 0, n)
	rows := make([][]int, n)
	for d := range rows {
		rows[d] = slab[d*n : (d+1)*n : (d+1)*n]
		distancesTo(g, graph.NodeID(d), rows[d], queue)
	}
	return rows
}

// distancesTo fills dist (len NumNodes) with hop distances to dst, using
// queue's backing array as the BFS FIFO.
func distancesTo(g *graph.Graph, dst graph.NodeID, dist []int, queue []graph.NodeID) {
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue = append(queue[:0], dst)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, id := range g.In(v) {
			l := g.Link(id)
			if l.Down {
				continue
			}
			if dist[l.From] < 0 {
				dist[l.From] = dist[v] + 1
				queue = append(queue, l.From)
			}
		}
	}
}

// AllLoopFree enumerates every loop-free path from src to dst over up links
// with at most maxHops hops, sorted by (length, lexicographic). maxHops <= 0
// means no limit (bounded anyway by N−1 for loop-free paths). It is the
// one-pair form of AllLoopFreeWith.
func AllLoopFree(g *graph.Graph, src, dst graph.NodeID, maxHops int) []Path {
	if !inRange(g, src, dst) {
		return nil
	}
	return AllLoopFreeWith(g, src, dst, maxHops, DistancesTo(g, dst))
}

// AllLoopFreeWith is AllLoopFree over a precomputed toDst = DistancesTo(g,
// dst). The enumeration is an exact depth-first search with an on-path
// marker, pruned by toDst: a partial path at node v with h hops used can only
// reach dst within budget if h + toDst[v] <= maxHops. Its cost is therefore
// set by the number of paths within the hop limit, not by the graph size —
// cheap on a large sparse topology under a tight H, exponential on a dense
// one with H near N−1.
func AllLoopFreeWith(g *graph.Graph, src, dst graph.NodeID, maxHops int, toDst []int) []Path {
	n := g.NumNodes()
	if !inRange(g, src, dst) || src == dst {
		return nil
	}
	if maxHops <= 0 || maxHops > n-1 {
		maxHops = n - 1
	}
	var out []Path
	onPath := make([]bool, n)
	nodes := []graph.NodeID{src}
	links := []graph.LinkID{}
	onPath[src] = true
	var dfs func(v graph.NodeID)
	dfs = func(v graph.NodeID) {
		if v == dst {
			out = append(out, Path{
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
			if l.Down || onPath[l.To] {
				continue
			}
			if toDst[l.To] < 0 || len(links)+1+toDst[l.To] > maxHops {
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
	Sort(out)
	return out
}

// Alternates returns the loop-free alternate paths for the O-D pair in
// attempt order: all loop-free paths of at most maxHops hops, sorted by
// increasing length, with the primary path removed. This is the suite a
// blocked call tries successively (§1 of the paper).
func Alternates(g *graph.Graph, src, dst graph.NodeID, primary Path, maxHops int) []Path {
	if !inRange(g, src, dst) {
		return nil
	}
	return AlternatesWith(g, src, dst, primary, maxHops, DistancesTo(g, dst))
}

// AlternatesWith is Alternates over a precomputed toDst = DistancesTo(g, dst).
func AlternatesWith(g *graph.Graph, src, dst graph.NodeID, primary Path, maxHops int, toDst []int) []Path {
	all := AllLoopFreeWith(g, src, dst, maxHops, toDst)
	out := all[:0]
	for _, p := range all {
		if !p.Equal(primary) {
			out = append(out, p)
		}
	}
	return out
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
