package paths

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// grid builds a 2x3 duplex grid:
//
//	0 - 1 - 2
//	|   |   |
//	3 - 4 - 5
func grid(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	g.AddNodes(6)
	pairs := [][2]graph.NodeID{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}}
	for _, p := range pairs {
		if _, _, err := g.AddDuplex(p[0], p[1], 10); err != nil {
			t.Fatalf("AddDuplex(%v): %v", p, err)
		}
	}
	return g
}

func complete(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	g.AddNodes(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, _, err := g.AddDuplex(graph.NodeID(i), graph.NodeID(j), 100); err != nil {
				t.Fatalf("AddDuplex: %v", err)
			}
		}
	}
	return g
}

func TestMinHopBasics(t *testing.T) {
	g := grid(t)
	p, ok := MinHop(g, 0, 5)
	if !ok {
		t.Fatal("no path 0→5")
	}
	if p.Hops() != 3 {
		t.Errorf("hops = %d, want 3", p.Hops())
	}
	// Lexicographic tie-break among the three 3-hop paths picks 0→1→2→5.
	if p.String() != "0→1→2→5" {
		t.Errorf("path = %s, want 0→1→2→5", p)
	}
	if err := Validate(g, p); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if p.Origin() != 0 || p.Destination() != 5 {
		t.Errorf("endpoints = %d,%d", p.Origin(), p.Destination())
	}
}

func TestMinHopSelfAndInvalid(t *testing.T) {
	g := grid(t)
	p, ok := MinHop(g, 2, 2)
	if !ok || p.Hops() != 0 || p.Origin() != 2 {
		t.Errorf("self path: %v %v", p, ok)
	}
	if _, ok := MinHop(g, 0, 99); ok {
		t.Error("invalid destination should fail")
	}
	if _, ok := MinHop(g, -1, 2); ok {
		t.Error("invalid source should fail")
	}
}

func TestMinHopUnreachable(t *testing.T) {
	g := grid(t)
	// Isolate node 5.
	if err := g.SetDuplexDown(4, 5, true); err != nil {
		t.Fatal(err)
	}
	if err := g.SetDuplexDown(2, 5, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := MinHop(g, 0, 5); ok {
		t.Error("expected unreachable")
	}
}

func TestMinHopAvoidsDownLinks(t *testing.T) {
	g := grid(t)
	if err := g.SetDuplexDown(0, 1, true); err != nil {
		t.Fatal(err)
	}
	p, ok := MinHop(g, 0, 1)
	if !ok {
		t.Fatal("no path 0→1")
	}
	if p.Hops() != 3 || p.String() != "0→3→4→1" {
		t.Errorf("path = %s (%d hops), want 0→3→4→1", p, p.Hops())
	}
}

func TestAllLoopFreeQuadrangle(t *testing.T) {
	g := complete(t, 4)
	all := AllLoopFree(g, 0, 1, 0)
	// Complete K4: 1 one-hop, 2 two-hop, 2 three-hop loop-free paths.
	if len(all) != 5 {
		t.Fatalf("got %d paths, want 5: %v", len(all), all)
	}
	wantHops := []int{1, 2, 2, 3, 3}
	for i, p := range all {
		if p.Hops() != wantHops[i] {
			t.Errorf("path %d: hops %d, want %d", i, p.Hops(), wantHops[i])
		}
		if err := Validate(g, p); err != nil {
			t.Errorf("path %d invalid: %v", i, err)
		}
	}
	// Hop limit H=2 removes the three-hop paths.
	if lim := AllLoopFree(g, 0, 1, 2); len(lim) != 3 {
		t.Errorf("H=2: got %d paths, want 3", len(lim))
	}
	// H=1 leaves only the direct link.
	if lim := AllLoopFree(g, 0, 1, 1); len(lim) != 1 || lim[0].Hops() != 1 {
		t.Errorf("H=1: got %v", lim)
	}
}

func TestAllLoopFreeSortedAndUnique(t *testing.T) {
	g := grid(t)
	all := AllLoopFree(g, 0, 5, 0)
	seen := map[string]bool{}
	for i, p := range all {
		if i > 0 && compare(p, all[i-1]) < 0 {
			t.Errorf("paths out of order at %d: %s before %s", i, all[i-1], p)
		}
		if seen[p.String()] {
			t.Errorf("duplicate path %s", p)
		}
		seen[p.String()] = true
		if err := Validate(g, p); err != nil {
			t.Errorf("invalid path %s: %v", p, err)
		}
	}
	if len(all) == 0 {
		t.Fatal("no paths found")
	}
	if all[0].Hops() != 3 {
		t.Errorf("shortest 0→5 should have 3 hops, got %d", all[0].Hops())
	}
}

func TestAlternatesExcludePrimary(t *testing.T) {
	g := complete(t, 4)
	primary, _ := MinHop(g, 0, 1)
	alts := Alternates(g, 0, 1, primary, 0)
	if len(alts) != 4 {
		t.Fatalf("got %d alternates, want 4", len(alts))
	}
	for _, a := range alts {
		if a.Equal(primary) {
			t.Errorf("primary %s present in alternates", a)
		}
	}
	// Order of increasing length: 2,2,3,3.
	if alts[0].Hops() != 2 || alts[3].Hops() != 3 {
		t.Errorf("alternate ordering wrong: %v", alts)
	}
}

func TestValidateRejectsBadPaths(t *testing.T) {
	g := grid(t)
	if err := Validate(g, Path{}); err == nil {
		t.Error("empty path should be invalid")
	}
	p, _ := MinHop(g, 0, 2)
	bad := p.Clone()
	bad.Links = bad.Links[:len(bad.Links)-1]
	if err := Validate(g, bad); err == nil {
		t.Error("length mismatch should be invalid")
	}
	bad2 := p.Clone()
	bad2.Nodes[1] = 3 // link no longer matches node sequence
	if err := Validate(g, bad2); err == nil {
		t.Error("inconsistent link should be invalid")
	}
	// Repeated node.
	loop := Path{
		Nodes: []graph.NodeID{0, 1, 0},
		Links: []graph.LinkID{g.LinkBetween(0, 1), g.LinkBetween(1, 0)},
	}
	if err := Validate(g, loop); err == nil {
		t.Error("looping path should be invalid")
	}
	// Down link.
	if err := g.SetDuplexDown(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, p); err == nil {
		t.Error("path over down link should be invalid")
	}
}

func TestPathsLoopFreeProperty(t *testing.T) {
	g := grid(t)
	f := func(a, b uint8) bool {
		src := graph.NodeID(a % 6)
		dst := graph.NodeID(b % 6)
		if src == dst {
			return true
		}
		for _, p := range AllLoopFree(g, src, dst, 0) {
			seen := map[graph.NodeID]bool{}
			for _, nd := range p.Nodes {
				if seen[nd] {
					return false
				}
				seen[nd] = true
			}
			if p.Origin() != src || p.Destination() != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPathAccessorsEmpty(t *testing.T) {
	var p Path
	if p.Origin() != graph.InvalidNode || p.Destination() != graph.InvalidNode {
		t.Error("empty path endpoints should be invalid")
	}
	if p.Hops() != 0 {
		t.Error("empty path has 0 hops")
	}
	if p.String() != "" {
		t.Errorf("empty path renders %q", p.String())
	}
}
