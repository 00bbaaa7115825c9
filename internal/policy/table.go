// Package policy implements the routing policies compared in the paper's §4:
// single-path (state-independent only), uncontrolled alternate routing,
// controlled alternate routing with per-link state protection (the paper's
// contribution), and the Ott–Krishnan separable shadow-price comparator.
// All policies share a precomputed route table (primary path plus loop-free
// alternates in order of increasing length per O-D pair) and implement the
// sim.Policy interface.
package policy

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/routetable"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// WeightedPath is one primary-path choice with its selection probability;
// the min-loss SI rule of §4 produces bifurcated primaries where an O-D pair
// splits across several paths.
type WeightedPath struct {
	Path   paths.Path
	Weight float64
}

// RouteSet holds the route suite of one ordered O-D pair.
type RouteSet struct {
	// Primaries are the SI primary choices; weights sum to 1. Single-path
	// SI rules (e.g. min-hop) have exactly one entry with weight 1.
	Primaries []WeightedPath
	// Alternates are every loop-free path of at most the table's hop limit,
	// ordered by increasing length, excluding all primaries. A blocked call
	// attempts them in order (§1).
	Alternates []paths.Path
}

// Table maps every ordered O-D pair to its route suite. Suites are stored
// in a dense slice indexed by origin·N+dest — the per-call lookup is on the
// simulator's hot path, and an array index beats hashing the pair.
type Table struct {
	g *graph.Graph
	// MaxAltHops is the H parameter of Equation 15: the maximum hop length
	// of any alternate-routed call.
	MaxAltHops int
	n          int
	sets       []*RouteSet
	// selectorSeed drives the deterministic per-call primary choice for
	// bifurcated primaries; policies sharing a table (or tables built with
	// the same seed) make identical choices per call ID, preserving common
	// random numbers across compared policies.
	selectorSeed int64
	// flat is the lazily built compiled form (see Flat); the Once makes
	// the build race-safe for tables shared across concurrent runs.
	flatOnce sync.Once
	flat     *routetable.Flat
}

// BuildMinHop constructs the route table for the deterministic min-hop SI
// rule: one primary per pair (lexicographic tie-break) and all loop-free
// alternates up to maxAltHops hops (0 means N−1, i.e. unlimited).
func BuildMinHop(g *graph.Graph, maxAltHops int) (*Table, error) {
	return BuildMinHopK(g, maxAltHops, 0)
}

// BuildMinHopK is BuildMinHop with the alternate suite additionally capped
// at the maxAlternates shortest paths per pair (0 means unlimited) — the
// form a deployment computing routes with a K-shortest-path algorithm
// (§4.2.1) would actually install. Capping the suite also makes the
// footnote-5 per-link H^k meaningful: with exhaustive loop-free alternates,
// near-Hamiltonian paths traverse essentially every link and H^k degenerates
// to the global H.
func BuildMinHopK(g *graph.Graph, maxAltHops, maxAlternates int) (*Table, error) {
	n := g.NumNodes()
	if maxAltHops <= 0 || maxAltHops > n-1 {
		maxAltHops = n - 1
	}
	trees := paths.AllTrees(g)
	// One pass sizes the slabs and finds the first unroutable pair, in
	// origin-major order.
	hops := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			h := trees[j].Dist[i]
			if h < 0 {
				return nil, fmt.Errorf("policy: no path %d→%d", i, j)
			}
			hops += h
		}
	}
	// Every primary, its RouteSet and its Primaries entry are carved out of
	// table-wide slabs; the three-index slices keep an append from running
	// into a neighbour.
	pairs := n * (n - 1)
	nodes := make([]graph.NodeID, hops+pairs)
	links := make([]graph.LinkID, hops)
	prims := make([]WeightedPath, pairs)
	sets := make([]RouteSet, pairs)
	t := &Table{g: g, MaxAltHops: maxAltHops, n: n, sets: make([]*RouteSet, n*n)}
	lf := paths.NewLoopFree(g, maxAltHops)
	k := 0
	for i := graph.NodeID(0); int(i) < n; i++ {
		for j := graph.NodeID(0); int(j) < n; j++ {
			if i == j {
				continue
			}
			h := trees[j].Dist[i]
			primary := trees[j].PathInto(i, nodes[:h+1:h+1], links[:h:h])
			nodes, links = nodes[h+1:], links[h:]
			prims[k] = WeightedPath{Path: primary, Weight: 1}
			sets[k] = RouteSet{
				Primaries:  prims[k : k+1 : k+1],
				Alternates: lf.Paths(i, j, trees[j].Dist, primary.Equal, maxAlternates),
			}
			t.sets[int(i)*n+int(j)] = &sets[k]
			k++
		}
	}
	return t, nil
}

// BuildBifurcated constructs a route table from externally supplied
// bifurcated primaries (the min-loss SI rule of §4), with alternates being
// all loop-free paths up to maxAltHops excluding every primary of the pair.
// primaries must cover every ordered pair of distinct nodes and each pair's
// weights must sum to 1 (within 1e-9).
func BuildBifurcated(g *graph.Graph, primaries map[[2]graph.NodeID][]WeightedPath, maxAltHops int, selectorSeed int64) (*Table, error) {
	n := g.NumNodes()
	if maxAltHops <= 0 || maxAltHops > n-1 {
		maxAltHops = n - 1
	}
	t := &Table{g: g, MaxAltHops: maxAltHops, n: n, sets: make([]*RouteSet, n*n), selectorSeed: selectorSeed}
	trees := paths.AllTrees(g)
	lf := paths.NewLoopFree(g, maxAltHops)
	for i := graph.NodeID(0); int(i) < n; i++ {
		for j := graph.NodeID(0); int(j) < n; j++ {
			if i == j {
				continue
			}
			key := [2]graph.NodeID{i, j}
			prim := primaries[key]
			if len(prim) == 0 {
				return nil, fmt.Errorf("policy: no primaries for %d→%d", i, j)
			}
			total := 0.0
			for _, wp := range prim {
				if err := paths.Validate(g, wp.Path); err != nil {
					return nil, fmt.Errorf("policy: primary for %d→%d: %w", i, j, err)
				}
				if wp.Weight < 0 {
					return nil, fmt.Errorf("policy: negative weight for %d→%d", i, j)
				}
				total += wp.Weight
			}
			if total < 1-1e-9 || total > 1+1e-9 {
				return nil, fmt.Errorf("policy: weights for %d→%d sum to %v", i, j, total)
			}
			alts := lf.Paths(i, j, trees[j].Dist, func(p paths.Path) bool {
				for _, wp := range prim {
					if p.Equal(wp.Path) {
						return true
					}
				}
				return false
			}, 0)
			if len(alts) == 0 {
				alts = nil
			}
			t.sets[int(i)*n+int(j)] = &RouteSet{Primaries: prim, Alternates: alts}
		}
	}
	return t, nil
}

// Routes returns the route suite for an ordered pair (nil if absent).
func (t *Table) Routes(i, j graph.NodeID) *RouteSet {
	if int(i) >= t.n || int(j) >= t.n || i < 0 || j < 0 {
		return nil
	}
	return t.sets[int(i)*t.n+int(j)]
}

// Graph returns the topology the table was built over.
func (t *Table) Graph() *graph.Graph { return t.g }

// SelectPrimary returns the call's primary path: the unique primary when the
// SI rule is single-valued, otherwise a deterministic weighted draw keyed by
// the call ID, so every policy sharing the selector seed assigns the same
// primary to the same call.
func (t *Table) SelectPrimary(c sim.Call) paths.Path {
	rs := t.Routes(c.Origin, c.Dest)
	if rs == nil || len(rs.Primaries) == 0 {
		return paths.Path{}
	}
	if len(rs.Primaries) == 1 {
		return rs.Primaries[0].Path
	}
	u := xrand.Uniform01(t.selectorSeed, int64(c.ID))
	acc := 0.0
	for _, wp := range rs.Primaries {
		acc += wp.Weight
		if u < acc {
			return wp.Path
		}
	}
	return rs.Primaries[len(rs.Primaries)-1].Path
}

// alternatesFor returns the alternates to try for a call whose selected
// primary is prim: the pair's alternate list, plus — under bifurcated
// primaries — the pair's other primaries are *not* tried (the SI rule chose
// prim; remaining paths of the suite are genuine alternates only).
func (t *Table) alternatesFor(c sim.Call, prim paths.Path) []paths.Path {
	rs := t.Routes(c.Origin, c.Dest)
	if rs == nil {
		return nil
	}
	return rs.Alternates
}

// AlternatesOf returns the ordered alternate suite for the call's O-D pair
// (the paths a blocked call attempts, in order).
func (t *Table) AlternatesOf(c sim.Call) []paths.Path {
	return t.alternatesFor(c, paths.Path{})
}

// MaxHops returns the table's H parameter (maximum alternate hop length).
func (t *Table) MaxHops() int { return t.MaxAltHops }
