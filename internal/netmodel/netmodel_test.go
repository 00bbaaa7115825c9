package netmodel

import (
	"testing"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/paths"
)

func TestQuadrangleShape(t *testing.T) {
	g := Quadrangle()
	if g.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4", g.NumNodes())
	}
	if g.NumLinks() != 12 {
		t.Errorf("links = %d, want 12 (fully connected duplex)", g.NumLinks())
	}
	for _, l := range g.Links() {
		if l.Capacity != DefaultCapacity {
			t.Errorf("link %d capacity %d, want %d", l.ID, l.Capacity, DefaultCapacity)
		}
	}
	if !g.Connected() {
		t.Error("quadrangle must be connected")
	}
}

func TestCompleteAndRing(t *testing.T) {
	g := Complete(6, 50)
	if g.NumLinks() != 30 {
		t.Errorf("K6 links = %d, want 30", g.NumLinks())
	}
	r := Ring(5, 10)
	if r.NumLinks() != 10 {
		t.Errorf("ring links = %d, want 10", r.NumLinks())
	}
	if !r.Connected() {
		t.Error("ring must be connected")
	}
	p, ok := paths.MinHop(r, 0, 2)
	if !ok || p.Hops() != 2 {
		t.Errorf("ring 0→2: %v %v", p, ok)
	}
}

func TestNSFNetShape(t *testing.T) {
	g := NSFNet()
	if g.NumNodes() != NSFNetNodes {
		t.Errorf("nodes = %d, want %d", g.NumNodes(), NSFNetNodes)
	}
	if g.NumLinks() != NSFNetLinks {
		t.Errorf("links = %d, want %d", g.NumLinks(), NSFNetLinks)
	}
	if !g.Connected() {
		t.Error("NSFNet must be connected")
	}
	// Every Table 1 link must exist with capacity 100, and no others.
	loads := NSFNetTable1Load()
	if len(loads) != NSFNetLinks {
		t.Fatalf("Table 1 has %d rows, want %d", len(loads), NSFNetLinks)
	}
	for pair := range loads {
		id := g.LinkBetween(pair[0], pair[1])
		if id == graph.InvalidLink {
			t.Errorf("link %d→%d missing", pair[0], pair[1])
			continue
		}
		if c := g.Link(id).Capacity; c != DefaultCapacity {
			t.Errorf("link %d→%d capacity %d, want %d", pair[0], pair[1], c, DefaultCapacity)
		}
	}
	for _, l := range g.Links() {
		if _, ok := loads[[2]graph.NodeID{l.From, l.To}]; !ok {
			t.Errorf("graph has link %d→%d not in Table 1", l.From, l.To)
		}
	}
}

// TestNSFNetAlternateCensusH11 reproduces the paper's §4.2.2 path census for
// unlimited alternates (H = 11 = N−1): "on the average each node pair had
// about 9 alternate paths, with a maximum of 15 and a minimum of 5".
func TestNSFNetAlternateCensusH11(t *testing.T) {
	g := NSFNet()
	total, min, max, n := 0, 1<<30, 0, 0
	for s := graph.NodeID(0); s < NSFNetNodes; s++ {
		for d := graph.NodeID(0); d < NSFNetNodes; d++ {
			if s == d {
				continue
			}
			primary, ok := paths.MinHop(g, s, d)
			if !ok {
				t.Fatalf("no primary path %d→%d", s, d)
			}
			alts := paths.Alternates(g, s, d, primary, 11)
			total += len(alts)
			if len(alts) < min {
				min = len(alts)
			}
			if len(alts) > max {
				max = len(alts)
			}
			n++
		}
	}
	avg := float64(total) / float64(n)
	if n != 132 {
		t.Fatalf("pairs = %d, want 132", n)
	}
	if min != 5 {
		t.Errorf("min alternates = %d, paper reports 5", min)
	}
	if max != 15 {
		t.Errorf("max alternates = %d, paper reports 15", max)
	}
	if avg < 8 || avg > 10 {
		t.Errorf("avg alternates = %.2f, paper reports about 9", avg)
	}
}

// TestNSFNetProtectionMatchesTable1 verifies that the published r^k values
// follow from the published Λ^k values via Equation 15 (see the erlang
// package for the 4 rounding-boundary rows).
func TestNSFNetProtectionMatchesTable1(t *testing.T) {
	loads := NSFNetTable1Load()
	prot := NSFNetTable1Protection()
	exact := 0
	for pair, load := range loads {
		want, ok := prot[pair]
		if !ok {
			t.Fatalf("missing protection row for %v", pair)
		}
		r6 := erlang.ProtectionLevel(load, DefaultCapacity, 6)
		r11 := erlang.ProtectionLevel(load, DefaultCapacity, 11)
		if r6 == want[0] && r11 == want[1] {
			exact++
		}
	}
	if exact < 26 {
		t.Errorf("%d/30 exact matches, want >= 26 (remainder explained by Λ rounding)", exact)
	}
}

func TestNSFNetFailureScenarios(t *testing.T) {
	scenarios := NSFNetFailureScenarios()
	if len(scenarios) != 2 {
		t.Fatalf("want 2 failure scenarios, got %d", len(scenarios))
	}
	for name, pair := range scenarios {
		g := NSFNet()
		if err := g.SetDuplexDown(pair[0], pair[1], true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !g.Connected() {
			t.Errorf("%s: network must survive the failure (paper reruns the sim on it)", name)
		}
	}
}

func TestNSFNetPrimaryHopHistogram(t *testing.T) {
	// Structural regression: the min-hop primary paths span 1..5 hops with
	// the distribution fixed by the topology.
	g := NSFNet()
	hist := map[int]int{}
	for s := graph.NodeID(0); s < NSFNetNodes; s++ {
		for d := graph.NodeID(0); d < NSFNetNodes; d++ {
			if s == d {
				continue
			}
			p, ok := paths.MinHop(g, s, d)
			if !ok {
				t.Fatalf("no path %d→%d", s, d)
			}
			hist[p.Hops()]++
		}
	}
	want := map[int]int{1: 30, 2: 44, 3: 38, 4: 16, 5: 4}
	for h, n := range want {
		if hist[h] != n {
			t.Errorf("hops=%d: %d pairs, want %d", h, hist[h], n)
		}
	}
}
