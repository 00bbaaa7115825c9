package paths

import (
	"container/heap"

	"repro/internal/graph"
)

// KShortest returns up to k loop-free paths from src to dst over up links in
// order of increasing hop count (ties broken lexicographically), using Yen's
// algorithm with unit link weights. It produces the same ordering as
// AllLoopFree truncated to k entries, but scales to topologies where
// exhaustive enumeration is infeasible. maxHops <= 0 means no hop limit.
//
// The paper computes its primary and alternate path suites with a K-shortest
// path algorithm (§4.2.1); this is the library's equivalent.
func KShortest(g *graph.Graph, src, dst graph.NodeID, k, maxHops int) []Path {
	if k <= 0 {
		return nil
	}
	n := g.NumNodes()
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 || src == dst {
		return nil
	}
	if maxHops <= 0 || maxHops > n-1 {
		maxHops = n - 1
	}
	first, ok := TreeTo(g, dst).Path(src)
	if !ok || first.Hops() > maxHops {
		return nil
	}
	accepted := []Path{first}
	cands := &candidateHeap{}
	heap.Init(cands)
	seen := map[string]bool{first.String(): true}

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		// Each prefix of the previously accepted path spawns a spur.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootLinks := prev.Links[:i]

			// Ban links used by any accepted path sharing this root, so the
			// spur deviates; ban root nodes (except spur) to stay loop-free.
			bannedLinks := map[graph.LinkID]bool{}
			for _, p := range accepted {
				if len(p.Nodes) > i && samePrefix(p.Nodes, rootNodes) {
					bannedLinks[p.Links[i]] = true
				}
			}
			bannedNodes := map[graph.NodeID]bool{}
			for _, nd := range rootNodes[:len(rootNodes)-1] {
				bannedNodes[nd] = true
			}

			spur, ok := shortestAvoiding(g, spurNode, dst, &ban{nodes: bannedNodes, links: bannedLinks})
			if !ok {
				continue
			}
			total := Path{
				Nodes: append(append([]graph.NodeID(nil), rootNodes...), spur.Nodes[1:]...),
				Links: append(append([]graph.LinkID(nil), rootLinks...), spur.Links...),
			}
			if total.Hops() > maxHops {
				continue
			}
			key := total.String()
			if !seen[key] {
				seen[key] = true
				heap.Push(cands, total)
			}
		}
		if cands.Len() == 0 {
			break
		}
		accepted = append(accepted, heap.Pop(cands).(Path))
	}
	return accepted
}

func samePrefix(nodes, prefix []graph.NodeID) bool {
	if len(nodes) < len(prefix) {
		return false
	}
	for i := range prefix {
		if nodes[i] != prefix[i] {
			return false
		}
	}
	return true
}

// ban excludes links, and every link leaving a node, from a spur search.
type ban struct {
	nodes map[graph.NodeID]bool
	links map[graph.LinkID]bool
}

// shortestAvoiding is the min-hop path from src to dst, by MinHop's
// next-hop rule, that traverses no banned link and enters no banned node:
// a banned node other than dst gets no distance, since its out-links are
// banned, so no next hop leads into it.
func shortestAvoiding(g *graph.Graph, src, dst graph.NodeID, b *ban) (Path, bool) {
	if b.nodes[src] {
		return Path{}, false
	}
	n := g.NumNodes()
	t := Tree{Dist: make([]int, n), next: make([]graph.LinkID, n), links: g.LinkView()}
	t.fill(g, dst, make([]graph.NodeID, 0, n), b)
	return t.Path(src)
}

// candidateHeap orders candidate paths by (length, lexicographic).
type candidateHeap []Path

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return compare(h[i], h[j]) < 0 }
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(Path)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}
