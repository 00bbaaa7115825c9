// Package optimize implements the min-loss state-independent primary-path
// selection of §4 ("Primary paths chosen to minimize link loss"): primaries
// are chosen to minimize the expected total lost-call rate Σ_k λ_k·B(λ_k,C_k)
// under the independent-link assumption, where λ_k is the (fractional)
// primary flow on link k. The cost is convex in the flows (Krishnan 1990),
// and the paper minimizes it with an iterative gradient method producing
// bifurcated primary flows; we use the classical flow-deviation
// (Frank–Wolfe) algorithm: linearize at the current flows, route each pair's
// demand entirely onto its current cheapest path, and take the best convex
// combination by golden-section line search.
package optimize

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/policy"
	"repro/internal/traffic"
)

// Options tunes the solver.
type Options struct {
	// MaxIterations bounds Frank–Wolfe steps (default 200).
	MaxIterations int
	// Tolerance stops when the relative cost improvement of a step falls
	// below it (default 1e-7).
	Tolerance float64
	// MinFraction prunes primary paths carrying less than this fraction of
	// a pair's demand from the final bifurcated routing (default 1e-3).
	MinFraction float64
}

// Result is the optimized bifurcated primary routing.
type Result struct {
	// Primaries maps each ordered pair to its weighted primary paths
	// (weights sum to 1).
	Primaries map[[2]graph.NodeID][]policy.WeightedPath
	// LinkLoads is the optimized expected primary flow per link.
	LinkLoads []float64
	// Cost is the minimized expected lost-call rate Σ λ_k·B(λ_k, C_k).
	Cost float64
	// Iterations actually performed.
	Iterations int
}

// LossRate evaluates the objective for a load vector.
func LossRate(g *graph.Graph, loads []float64) float64 {
	total := 0.0
	for id, l := range loads {
		if l <= 0 {
			continue
		}
		total += l * erlang.B(l, g.Link(graph.LinkID(id)).Capacity)
	}
	return total
}

// lossDerivative returns d/dλ [λ·B(λ,C)] = B + λ·B', with B' computed by
// differentiating the Erlang-B recursion.
func lossDerivative(load float64, capacity int) float64 {
	if load <= 0 {
		// lim_{λ→0} d/dλ λB(λ,C) = B(0,C), which is 0 for C >= 1, 1 for C=0.
		if capacity == 0 {
			return 1
		}
		return 0
	}
	b, db := 1.0, 0.0
	for c := 1; c <= capacity; c++ {
		u := load * b
		du := b + load*db
		den := float64(c) + u
		bNew := u / den
		dbNew := float64(c) * du / (den * den)
		b, db = bNew, dbNew
	}
	return b + load*db
}

// MinLossPrimaries computes bifurcated min-loss primaries for the matrix.
func MinLossPrimaries(g *graph.Graph, m *traffic.Matrix, opts Options) (*Result, error) {
	if g.NumNodes() != m.Size() {
		return nil, fmt.Errorf("optimize: matrix size %d for %d nodes", m.Size(), g.NumNodes())
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 200
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-7
	}
	if opts.MinFraction <= 0 {
		opts.MinFraction = 1e-3
	}
	n := g.NumNodes()

	// Per-pair path flows, keyed by path string.
	type flowEntry struct {
		path paths.Path
		flow float64
	}
	flows := make(map[[2]graph.NodeID]map[string]*flowEntry)

	// Initialize: everything on the min-hop path.
	trees := paths.AllTrees(g)
	for i := graph.NodeID(0); int(i) < n; i++ {
		for j := graph.NodeID(0); int(j) < n; j++ {
			if i == j || m.Demand(i, j) == 0 {
				continue
			}
			p, ok := trees[j].Path(i)
			if !ok {
				return nil, fmt.Errorf("optimize: no path %d→%d", i, j)
			}
			flows[[2]graph.NodeID{i, j}] = map[string]*flowEntry{
				p.String(): {path: p, flow: m.Demand(i, j)},
			}
		}
	}

	// Every accumulation below walks the pairs (and each pair's paths) in
	// sorted order, never map order: the per-link float sums and the final
	// weighted-path slices must be bit-identical from run to run. The pair
	// set is fixed after initialization, so the sorted index is built once.
	pairs := make([][2]graph.NodeID, 0, len(flows))
	for pair := range flows {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	sortedEntries := func(perPair map[string]*flowEntry) []*flowEntry {
		keys := make([]string, 0, len(perPair))
		for k := range perPair {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]*flowEntry, len(keys))
		for i, k := range keys {
			out[i] = perPair[k]
		}
		return out
	}

	linkLoads := func() []float64 {
		loads := make([]float64, g.NumLinks())
		for _, pair := range pairs {
			for _, fe := range sortedEntries(flows[pair]) {
				for _, id := range fe.path.Links {
					loads[id] += fe.flow
				}
			}
		}
		return loads
	}

	loads := linkLoads()
	cost := LossRate(g, loads)
	iter := 0
	for ; iter < opts.MaxIterations; iter++ {
		// Linearize: marginal cost per link.
		w := make([]float64, g.NumLinks())
		for id := range w {
			w[id] = lossDerivative(loads[id], g.Link(graph.LinkID(id)).Capacity)
		}
		// All-or-nothing assignment on cheapest paths.
		target := make([]float64, g.NumLinks())
		aonPaths := make(map[[2]graph.NodeID]paths.Path, len(flows))
		for _, pair := range pairs {
			p, ok := cheapestPath(g, pair[0], pair[1], w)
			if !ok {
				return nil, fmt.Errorf("optimize: no path %d→%d", pair[0], pair[1])
			}
			aonPaths[pair] = p
			d := m.Demand(pair[0], pair[1])
			for _, id := range p.Links {
				target[id] += d
			}
		}
		// Golden-section line search on γ ∈ [0,1].
		blend := func(gamma float64) []float64 {
			out := make([]float64, len(loads))
			for id := range out {
				out[id] = (1-gamma)*loads[id] + gamma*target[id]
			}
			return out
		}
		gamma := goldenSection(func(gmm float64) float64 {
			return LossRate(g, blend(gmm))
		}, 0, 1, 48)
		newCost := LossRate(g, blend(gamma))
		if newCost > cost-opts.Tolerance*math.Max(cost, 1e-12) || gamma == 0 {
			break
		}
		// Apply the step to path flows.
		for _, pair := range pairs {
			perPair := flows[pair]
			for _, fe := range perPair {
				fe.flow *= 1 - gamma
			}
			p := aonPaths[pair]
			key := p.String()
			if fe, ok := perPair[key]; ok {
				fe.flow += gamma * m.Demand(pair[0], pair[1])
			} else {
				perPair[key] = &flowEntry{path: p, flow: gamma * m.Demand(pair[0], pair[1])}
			}
		}
		loads = linkLoads()
		cost = LossRate(g, loads)
	}

	// Extract weighted primaries, pruning negligible fractions.
	res := &Result{
		Primaries:  make(map[[2]graph.NodeID][]policy.WeightedPath, len(flows)),
		LinkLoads:  loads,
		Cost:       cost,
		Iterations: iter,
	}
	for _, pair := range pairs {
		d := m.Demand(pair[0], pair[1])
		var wps []policy.WeightedPath
		kept := 0.0
		for _, fe := range sortedEntries(flows[pair]) {
			frac := fe.flow / d
			if frac < opts.MinFraction {
				continue
			}
			wps = append(wps, policy.WeightedPath{Path: fe.path, Weight: frac})
			kept += frac
		}
		if len(wps) == 0 || kept <= 0 {
			return nil, fmt.Errorf("optimize: pair %v lost all flow", pair)
		}
		for k := range wps {
			wps[k].Weight /= kept
		}
		res.Primaries[pair] = wps
	}
	return res, nil
}

// cheapestPath is Dijkstra over up links with nonnegative weights,
// deterministic tie-breaking by node ID.
//
//altlint:float-ok nd == dist is the deterministic equal-cost tie-break, not an identity test
func cheapestPath(g *graph.Graph, src, dst graph.NodeID, w []float64) (paths.Path, bool) {
	n := g.NumNodes()
	dist := make([]float64, n)
	prevLink := make([]graph.LinkID, n)
	visited := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevLink[i] = graph.InvalidLink
	}
	dist[src] = 0
	pq := &nodeHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		v := item.node
		if visited[v] {
			continue
		}
		visited[v] = true
		if v == dst {
			break
		}
		for _, id := range g.Out(v) {
			l := g.Link(id)
			if l.Down || visited[l.To] {
				continue
			}
			nd := dist[v] + w[id]
			if nd < dist[l.To] || (nd == dist[l.To] && prevLink[l.To] != graph.InvalidLink && l.From < g.Link(prevLink[l.To]).From) {
				dist[l.To] = nd
				prevLink[l.To] = id
				heap.Push(pq, nodeItem{node: l.To, dist: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return paths.Path{}, false
	}
	// Reconstruct.
	var rlinks []graph.LinkID
	var rnodes []graph.NodeID
	cur := dst
	rnodes = append(rnodes, cur)
	for cur != src {
		id := prevLink[cur]
		rlinks = append(rlinks, id)
		cur = g.Link(id).From
		rnodes = append(rnodes, cur)
	}
	// Reverse.
	for i, j := 0, len(rlinks)-1; i < j; i, j = i+1, j-1 {
		rlinks[i], rlinks[j] = rlinks[j], rlinks[i]
	}
	for i, j := 0, len(rnodes)-1; i < j; i, j = i+1, j-1 {
		rnodes[i], rnodes[j] = rnodes[j], rnodes[i]
	}
	return paths.Path{Nodes: rnodes, Links: rlinks}, true
}

type nodeItem struct {
	node graph.NodeID
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// goldenSection minimizes f on [lo, hi] with the given iteration budget and
// returns the minimizing abscissa. f must be unimodal on the interval (true
// for convex objectives along a line segment).
func goldenSection(f func(float64) float64, lo, hi float64, iters int) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for i := 0; i < iters; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	// Compare interior best against endpoints (minimum may be at γ=0 or 1).
	best, fbest := (a+b)/2, f((a+b)/2)
	for _, x := range []float64{lo, hi} {
		if fx := f(x); fx < fbest {
			best, fbest = x, fx
		}
	}
	return best
}
