package routetable

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// build2 flattens a tiny 2-node, 3-link table: pair 0→1 has two weighted
// primaries and one alternate; the remaining pairs are empty.
func build2(t *testing.T) *Flat {
	t.Helper()
	b := NewBuilder(2, 3, 42)
	b.StartPair() // 0→0: empty
	b.StartPair() // 0→1
	b.Primary([]graph.LinkID{0}, 0.75)
	b.Primary([]graph.LinkID{1, 2}, 0.25)
	b.Alternate([]graph.LinkID{2, 1})
	b.StartPair() // 1→0: empty
	b.StartPair() // 1→1: empty
	f := b.Finish()
	if f == nil {
		t.Fatal("Finish returned nil for a well-formed build")
	}
	return f
}

func TestBuilderLayout(t *testing.T) {
	f := build2(t)
	if f.NumNodes != 2 || f.NumLinks != 3 || f.SelectorSeed != 42 {
		t.Fatalf("header = (%d,%d,%d), want (2,3,42)", f.NumNodes, f.NumLinks, f.SelectorSeed)
	}
	if f.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", f.NumRows())
	}
	wantPairOff := []int32{0, 0, 3, 3, 3}
	if len(f.PairOff) != len(wantPairOff) {
		t.Fatalf("PairOff len %d, want %d", len(f.PairOff), len(wantPairOff))
	}
	for i, v := range wantPairOff {
		if f.PairOff[i] != v {
			t.Fatalf("PairOff[%d] = %d, want %d", i, f.PairOff[i], v)
		}
	}
	// Pair 0→1 (p=1): rows [0,3), alternates from row 2. Empty pairs have
	// AltStart == PairOff (no primaries).
	wantAltStart := []int32{0, 2, 3, 3}
	for i, v := range wantAltStart {
		if f.AltStart[i] != v {
			t.Fatalf("AltStart[%d] = %d, want %d", i, f.AltStart[i], v)
		}
	}
	rows := [][]graph.LinkID{{0}, {1, 2}, {2, 1}}
	for r, want := range rows {
		got := f.Row(int32(r))
		if len(got) != len(want) {
			t.Fatalf("Row(%d) = %v, want %v", r, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Row(%d) = %v, want %v", r, got, want)
			}
		}
	}
}

// TestBuilderPrimCum checks the cumulative weights accumulate left to
// right exactly (the weighted-draw bit-identity depends on the add
// order), and that single-primary tables carry no PrimCum at all.
func TestBuilderPrimCum(t *testing.T) {
	f := build2(t)
	if f.PrimCum == nil {
		t.Fatal("bifurcated table lost its PrimCum")
	}
	if got, want := f.PrimCum[0], 0.75; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("PrimCum[0] = %v, want %v", got, want)
	}
	if got, want := f.PrimCum[1], 0.75+0.25; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("PrimCum[1] = %v, want exact left-to-right sum %v", got, want)
	}

	b := NewBuilder(1, 1, 0)
	b.StartPair()
	b.Primary([]graph.LinkID{0}, 1)
	single := b.Finish()
	if single == nil {
		t.Fatal("single-primary build failed")
	}
	if single.PrimCum != nil {
		t.Fatal("single-primary table should not materialize PrimCum")
	}
}

func TestBuilderMisuse(t *testing.T) {
	cases := map[string]func() *Flat{
		"out-of-range link": func() *Flat {
			b := NewBuilder(1, 1, 0)
			b.StartPair()
			b.Primary([]graph.LinkID{1}, 1)
			return b.Finish()
		},
		"negative link": func() *Flat {
			b := NewBuilder(1, 1, 0)
			b.StartPair()
			b.Primary([]graph.LinkID{graph.LinkID(-1)}, 1)
			return b.Finish()
		},
		"out-of-range first row": func() *Flat {
			// The very first row being invalid must not panic the builder's
			// cumulative-weight bookkeeping (regression: primCum indexing).
			b := NewBuilder(1, 0, 0)
			b.StartPair()
			b.Primary([]graph.LinkID{0}, 1)
			return b.Finish()
		},
		"primary after alternate": func() *Flat {
			b := NewBuilder(1, 2, 0)
			b.StartPair()
			b.Primary([]graph.LinkID{0}, 1)
			b.Alternate([]graph.LinkID{1})
			b.Primary([]graph.LinkID{0}, 1)
			return b.Finish()
		},
		"row before any pair": func() *Flat {
			b := NewBuilder(1, 1, 0)
			b.Primary([]graph.LinkID{0}, 1)
			b.StartPair()
			return b.Finish()
		},
		"alternate before any pair": func() *Flat {
			b := NewBuilder(1, 1, 0)
			b.Alternate([]graph.LinkID{0})
			b.StartPair()
			return b.Finish()
		},
		"too few pairs": func() *Flat {
			b := NewBuilder(2, 1, 0)
			b.StartPair()
			return b.Finish()
		},
		"too many pairs": func() *Flat {
			b := NewBuilder(1, 1, 0)
			b.StartPair()
			b.StartPair()
			return b.Finish()
		},
	}
	for name, build := range cases {
		if f := build(); f != nil {
			t.Errorf("%s: Finish returned a table, want nil", name)
		}
	}
}

// TestBuilderEmptyTopology covers the degenerate zero-pair build.
func TestBuilderEmptyTopology(t *testing.T) {
	f := NewBuilder(0, 0, 0).Finish()
	if f == nil {
		t.Fatal("zero-node build failed")
	}
	if f.NumRows() != 0 || len(f.PairOff) != 1 {
		t.Fatalf("zero-node table has rows: %d pairs %d", f.NumRows(), len(f.PairOff))
	}
}

// TestBuilderLatePrimCum covers a table whose first bifurcated pair follows
// single-primary pairs and alternates: PrimCum is created at that pair, padded
// to one entry per row, and holds the pair's exact left-to-right sums. A
// reserved build comes out at its exact size.
func TestBuilderLatePrimCum(t *testing.T) {
	for _, reserve := range []bool{false, true} {
		b := NewBuilder(2, 3, 0)
		if reserve {
			b.Reserve(6, 10)
		}
		b.StartPair() // 0→0: empty
		b.StartPair() // 0→1: one primary, one alternate
		b.Primary([]graph.LinkID{0}, 1)
		b.Alternate([]graph.LinkID{1, 2})
		b.StartPair() // 1→0: three primaries, one alternate
		b.Primary([]graph.LinkID{1}, 0.1)
		b.Primary([]graph.LinkID{2, 0}, 0.2)
		b.Primary([]graph.LinkID{2}, 0.7)
		b.Alternate([]graph.LinkID{0, 1, 2})
		b.StartPair() // 1→1: empty
		f := b.Finish()
		if f == nil {
			t.Fatal("Finish returned nil for a well-formed build")
		}
		if len(f.PrimCum) != f.NumRows() {
			t.Fatalf("reserve=%v: len(PrimCum) = %d, want %d", reserve, len(f.PrimCum), f.NumRows())
		}
		acc := 0.0 // a run-time sum, not an exact constant expression
		for i, w := range []float64{0.1, 0.2, 0.7} {
			acc += w
			if got := f.PrimCum[2+i]; math.Float64bits(got) != math.Float64bits(acc) {
				t.Fatalf("reserve=%v: PrimCum[%d] = %v, want %v", reserve, 2+i, got, acc)
			}
		}
		if reserve && (cap(f.Links) != len(f.Links) || cap(f.RowOff) != len(f.RowOff) || cap(f.PrimCum) != len(f.PrimCum)) {
			t.Fatalf("reserved build has slack: Links %d/%d RowOff %d/%d PrimCum %d/%d",
				len(f.Links), cap(f.Links), len(f.RowOff), cap(f.RowOff), len(f.PrimCum), cap(f.PrimCum))
		}
	}
}
