// Package netmodel catalogs the network topologies studied in the paper: the
// fully-connected symmetric quadrangle of §4.1 and the 12-node NSFNet T3
// Backbone model of §4.2 (Fall 1992 configuration, adjacency as implied by
// the 30 directed links of Table 1), plus generic constructors for complete
// and ring networks used in tests and extension experiments.
package netmodel

import (
	"fmt"

	"repro/internal/graph"
)

// DefaultCapacity is the per-direction link capacity used throughout the
// paper's experiments: a 155 Mb/s facility with 100 Mb/s allocated to
// rate-based traffic and a 1 Mb/s prototype video call, giving C = 100 calls
// (§4.2.1). The quadrangle uses the same value.
const DefaultCapacity = 100

// Complete returns a fully-connected duplex network on n nodes with the
// given per-direction capacity.
func Complete(n, capacity int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("node%d", i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, _, err := g.AddDuplex(graph.NodeID(i), graph.NodeID(j), capacity); err != nil {
				panic(err) // unreachable for distinct i<j
			}
		}
	}
	return g
}

// Quadrangle returns the fully-connected 4-node network of §4.1 with
// capacity C=100 per direction.
func Quadrangle() *graph.Graph {
	return Complete(4, DefaultCapacity)
}

// Ring returns a duplex ring on n nodes (used by extension experiments and
// tests; not a paper topology).
func Ring(n, capacity int) *graph.Graph {
	g := graph.New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if _, _, err := g.AddDuplex(graph.NodeID(i), graph.NodeID(j), capacity); err != nil {
			panic(err)
		}
	}
	return g
}

// NSFNet node indices. The paper numbers the Core Nodal Switching Subsystems
// 0..11; the figure artwork with city labels is not available in our source,
// so the names below are descriptive placeholders consistent with the
// Fall-1992 T3 backbone but cosmetic to every computation.
const (
	NSFNetNodes = 12
	NSFNetLinks = 30 // directed
)

// nsfnetAdjacency lists the 15 duplex adjacencies implied by the 30 directed
// links of Table 1.
var nsfnetAdjacency = [][2]graph.NodeID{
	{0, 1}, {0, 11}, {1, 2}, {1, 5}, {2, 3},
	{3, 4}, {4, 5}, {4, 11}, {5, 6}, {6, 7},
	{7, 8}, {7, 9}, {8, 10}, {9, 10}, {10, 11},
}

// nsfnetNames gives placeholder display names for the 12 core switching
// subsystems.
var nsfnetNames = [NSFNetNodes]string{
	"CNSS0", "CNSS1", "CNSS2", "CNSS3", "CNSS4", "CNSS5",
	"CNSS6", "CNSS7", "CNSS8", "CNSS9", "CNSS10", "CNSS11",
}

// NSFNet returns the 12-node NSFNet T3 Backbone model of §4.2: 15 duplex
// adjacencies (30 unidirectional links), each direction with capacity
// DefaultCapacity.
func NSFNet() *graph.Graph {
	g := graph.New()
	for _, name := range nsfnetNames {
		g.AddNode(name)
	}
	for _, p := range nsfnetAdjacency {
		if _, _, err := g.AddDuplex(p[0], p[1], DefaultCapacity); err != nil {
			panic(err)
		}
	}
	return g
}

// NSFNetTable1Load returns the paper's Table 1 primary traffic demand Λ^k
// (Erlangs, rounded to integers as published) indexed by directed link, under
// the nominal load condition with minimum-hop primary paths. The map key is
// the (from, to) node pair.
func NSFNetTable1Load() map[[2]graph.NodeID]float64 {
	return map[[2]graph.NodeID]float64{
		{0, 1}: 74, {0, 11}: 77, {1, 0}: 71, {1, 2}: 37, {1, 5}: 46,
		{2, 1}: 34, {2, 3}: 16, {3, 2}: 16, {3, 4}: 49, {4, 3}: 54,
		{4, 5}: 63, {4, 11}: 103, {5, 1}: 49, {5, 4}: 65, {5, 6}: 81,
		{6, 5}: 87, {6, 7}: 74, {7, 6}: 73, {7, 8}: 71, {7, 9}: 43,
		{8, 7}: 76, {8, 10}: 124, {9, 7}: 39, {9, 10}: 49, {10, 8}: 107,
		{10, 9}: 48, {10, 11}: 167, {11, 0}: 85, {11, 4}: 104, {11, 10}: 154,
	}
}

// NSFNetTable1Protection returns the paper's published state-protection
// levels r^k for H=6 and H=11 (Table 1), indexed by directed link.
func NSFNetTable1Protection() map[[2]graph.NodeID][2]int {
	return map[[2]graph.NodeID][2]int{
		{0, 1}: {7, 10}, {0, 11}: {8, 12}, {1, 0}: {6, 8}, {1, 2}: {2, 3}, {1, 5}: {3, 4},
		{2, 1}: {2, 3}, {2, 3}: {1, 2}, {3, 2}: {1, 2}, {3, 4}: {3, 4}, {4, 3}: {3, 4},
		{4, 5}: {4, 6}, {4, 11}: {56, 100}, {5, 1}: {3, 4}, {5, 4}: {5, 6}, {5, 6}: {11, 15},
		{6, 5}: {16, 26}, {6, 7}: {7, 10}, {7, 6}: {7, 9}, {7, 8}: {6, 8}, {7, 9}: {3, 3},
		{8, 7}: {8, 11}, {8, 10}: {100, 100}, {9, 7}: {2, 3}, {9, 10}: {3, 4}, {10, 8}: {70, 100},
		{10, 9}: {3, 4}, {10, 11}: {100, 100}, {11, 0}: {14, 22}, {11, 4}: {60, 100}, {11, 10}: {100, 100},
	}
}

// NSFNetFailureScenarios returns the two link-failure cases studied in §4:
// the duplex pairs disabled in each scenario.
func NSFNetFailureScenarios() map[string][2]graph.NodeID {
	return map[string][2]graph.NodeID{
		"fail-2-3": {2, 3},
		"fail-7-9": {7, 9},
	}
}
