package netmodel

import (
	"fmt"

	"repro/internal/graph"
)

// Metro returns a synthetic metropolitan-area topology: a ring of pops
// fully-meshed points of presence ("pop cliques") of popSize nodes each,
// joined by duplex trunk links between the gateways of adjacent pops. Pop
// p occupies the node index range [p·popSize, (p+1)·popSize); its gateway
// is the first node of the range (see MetroGateway). Intra-pop links carry
// intraCapacity per direction, ring trunks trunkCapacity.
//
// The generator exists for the large-network regimes the paper's published
// topologies cannot reach (hundreds to thousands of nodes): under a
// locality-weighted matrix (traffic.MetroLocality) almost all traffic stays
// inside a pop clique, and the clique/trunk structure gives the
// metastability experiments a mesh with genuine alternate-path diversity.
// altbench's metro-stream workload runs it at Metro(50, 4, 30, 60), 200
// nodes.
//
// pops must be at least 3 (a two-pop ring would duplicate its trunk) and
// popSize at least 1; with popSize 1 the topology degenerates to
// Ring(pops, trunkCapacity).
func Metro(pops, popSize, intraCapacity, trunkCapacity int) *graph.Graph {
	if pops < 3 || popSize < 1 {
		panic(fmt.Errorf("netmodel: metro needs pops >= 3 and popSize >= 1 (got %d×%d)", pops, popSize))
	}
	g := graph.New()
	for p := 0; p < pops; p++ {
		for i := 0; i < popSize; i++ {
			g.AddNode(fmt.Sprintf("p%dn%d", p, i))
		}
	}
	for p := 0; p < pops; p++ {
		base := graph.NodeID(p * popSize)
		for i := 0; i < popSize; i++ {
			for j := i + 1; j < popSize; j++ {
				if _, _, err := g.AddDuplex(base+graph.NodeID(i), base+graph.NodeID(j), intraCapacity); err != nil {
					panic(err) // unreachable for distinct i<j
				}
			}
		}
	}
	for p := 0; p < pops; p++ {
		a := MetroGateway(p, popSize)
		b := MetroGateway((p+1)%pops, popSize)
		if _, _, err := g.AddDuplex(a, b, trunkCapacity); err != nil {
			panic(err) // unreachable for pops >= 3
		}
	}
	return g
}

// MetroGateway returns the gateway node of pop p in a Metro topology with
// the given popSize: the first node of the pop's index range.
func MetroGateway(p, popSize int) graph.NodeID {
	return graph.NodeID(p * popSize)
}

// MetroPop returns the pop index owning node v in a Metro topology with
// the given popSize.
func MetroPop(v graph.NodeID, popSize int) int {
	return int(v) / popSize
}
