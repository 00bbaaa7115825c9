package policy

import (
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/paths"
	"repro/internal/routetable"
	"repro/internal/sim"
)

// TestFlatExactSize checks that a compiled route table holds no growth
// slack: buildFlat counts its rows and link ids first, so every slab is
// allocated once at its final length, and PrimCum exists only for a table
// with a bifurcated pair. It also pins the id and call layout, so a widened
// field shows up here rather than as a silent memory regression.
func TestFlatExactSize(t *testing.T) {
	if s := unsafe.Sizeof(graph.NodeID(0)); s != 4 {
		t.Errorf("graph.NodeID is %d bytes, want 4", s)
	}
	if s := unsafe.Sizeof(graph.LinkID(0)); s != 4 {
		t.Errorf("graph.LinkID is %d bytes, want 4", s)
	}
	if s := unsafe.Sizeof(sim.Call{}); s != 32 {
		t.Errorf("sim.Call is %d bytes, want 32", s)
	}

	nsf := netmodel.NSFNet()
	nsfTable, err := BuildMinHop(nsf, 11)
	if err != nil {
		t.Fatal(err)
	}
	metroTable, err := BuildMinHop(netmodel.Metro(50, 4, 30, 60), 2)
	if err != nil {
		t.Fatal(err)
	}
	// NSFNet with one pair split across its two shortest paths.
	primaries := map[[2]graph.NodeID][]WeightedPath{}
	for i := graph.NodeID(0); int(i) < nsf.NumNodes(); i++ {
		for j := graph.NodeID(0); int(j) < nsf.NumNodes(); j++ {
			if i != j {
				primaries[[2]graph.NodeID{i, j}] = nsfTable.Routes(i, j).Primaries
			}
		}
	}
	two := paths.AllLoopFree(nsf, 0, 8, 0)
	if len(two) < 2 {
		t.Fatalf("AllLoopFree(0, 8) = %d paths, want at least 2", len(two))
	}
	primaries[[2]graph.NodeID{0, 8}] = []WeightedPath{{Path: two[0], Weight: 0.7}, {Path: two[1], Weight: 0.3}}
	bifTable, err := BuildBifurcated(nsf, primaries, 11, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The tiered policy over its own, K-capped table.
	tierTable, err := BuildMinHopK(nsf, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := NewControlledTiered(tierTable, make([]float64, nsf.NumLinks()), 3)
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := tiered.CompileRoutes()
	if !ok {
		t.Fatal("ControlledTiered did not compile")
	}

	cases := []struct {
		name       string
		tbl        *Table
		flat       *routetable.Flat
		bifurcated bool
	}{
		{"nsfnet-H11", nsfTable, nsfTable.Flat(), false},
		{"metro200-H2", metroTable, metroTable.Flat(), false},
		{"nsfnet-bifurcated", bifTable, bifTable.Flat(), true},
		{"nsfnet-H6-K4-tiered", tierTable, comp.Flat, false},
	}
	for _, c := range cases {
		f := c.flat
		if f == nil {
			t.Fatalf("%s: table did not flatten", c.name)
		}
		rows, links := 0, 0
		for p := 0; p < f.NumNodes*f.NumNodes; p++ {
			rs := c.tbl.Routes(graph.NodeID(p/f.NumNodes), graph.NodeID(p%f.NumNodes))
			if rs == nil {
				continue
			}
			rows += len(rs.Primaries) + len(rs.Alternates)
			for _, wp := range rs.Primaries {
				links += wp.Path.Hops()
			}
			for _, alt := range rs.Alternates {
				links += alt.Hops()
			}
		}
		if f.NumRows() != rows || len(f.Links) != links {
			t.Errorf("%s: %d rows and %d link ids, want %d and %d", c.name, f.NumRows(), len(f.Links), rows, links)
		}
		for _, s := range []struct {
			name     string
			len, cap int
		}{
			{"Links", len(f.Links), cap(f.Links)},
			{"RowOff", len(f.RowOff), cap(f.RowOff)},
			{"PairOff", len(f.PairOff), cap(f.PairOff)},
			{"AltStart", len(f.AltStart), cap(f.AltStart)},
			{"PrimCum", len(f.PrimCum), cap(f.PrimCum)},
		} {
			if s.cap != s.len {
				t.Errorf("%s: cap(%s) = %d, len %d", c.name, s.name, s.cap, s.len)
			}
		}
		if got := f.PrimCum != nil; got != c.bifurcated {
			t.Errorf("%s: PrimCum present = %v, want %v", c.name, got, c.bifurcated)
		}
		if c.bifurcated && len(f.PrimCum) != rows {
			t.Errorf("%s: len(PrimCum) = %d, want one per row (%d)", c.name, len(f.PrimCum), rows)
		}
	}
	if len(comp.AltSet) != comp.NumRows() || cap(comp.AltSet) != len(comp.AltSet) {
		t.Errorf("tiered AltSet: len %d cap %d, want %d", len(comp.AltSet), cap(comp.AltSet), comp.NumRows())
	}
}
