package netmodel

import (
	"testing"

	"repro/internal/graph"
)

func TestMetroShape(t *testing.T) {
	pops, popSize := 5, 4
	g := Metro(pops, popSize, 60, 200)
	if got, want := g.NumNodes(), pops*popSize; got != want {
		t.Errorf("nodes = %d, want %d", got, want)
	}
	// Each pop clique contributes popSize·(popSize−1) directed links, the
	// ring contributes 2·pops trunks.
	wantLinks := pops*popSize*(popSize-1) + 2*pops
	if got := g.NumLinks(); got != wantLinks {
		t.Errorf("links = %d, want %d", got, wantLinks)
	}
	if !g.Connected() {
		t.Error("metro topology not strongly connected")
	}
	// Capacities: trunks between adjacent gateways, intra inside a pop.
	for p := 0; p < pops; p++ {
		a := MetroGateway(p, popSize)
		b := MetroGateway((p+1)%pops, popSize)
		id := g.LinkBetween(a, b)
		if id == graph.InvalidLink {
			t.Fatalf("missing trunk %d→%d", a, b)
		}
		if c := g.Link(id).Capacity; c != 200 {
			t.Errorf("trunk %d→%d capacity = %d, want 200", a, b, c)
		}
	}
	intra := g.LinkBetween(1, 2) // both in pop 0
	if intra == graph.InvalidLink || g.Link(intra).Capacity != 60 {
		t.Errorf("intra-pop link 1→2 missing or wrong capacity")
	}
	if g.LinkBetween(1, graph.NodeID(popSize+1)) != graph.InvalidLink {
		t.Error("unexpected link between non-gateway nodes of different pops")
	}
	for v := 0; v < pops*popSize; v++ {
		if got, want := MetroPop(graph.NodeID(v), popSize), v/popSize; got != want {
			t.Errorf("MetroPop(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestMetroDegenerate(t *testing.T) {
	g := Metro(6, 1, 10, 30) // popSize 1: plain ring of trunks
	if g.NumNodes() != 6 || g.NumLinks() != 12 {
		t.Errorf("degenerate metro: %d nodes %d links, want 6 and 12", g.NumNodes(), g.NumLinks())
	}
	for _, bad := range [][2]int{{2, 3}, {3, 0}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Metro(%d, %d, ...) did not panic", bad[0], bad[1])
				}
			}()
			Metro(bad[0], bad[1], 10, 10)
		}()
	}
}
