package sim

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/traffic"
)

// metroMatrix is the 200-node metro traffic of the metro-stream benchmark
// workload: 39.8k O-D pairs, most of them cross-pop pairs at 0.006 Erl.
func metroMatrix() *traffic.Matrix {
	return traffic.MetroLocality(50, 4, 24, 0.006)
}

func nsfnetMatrix(tb testing.TB) *traffic.Matrix {
	m, _, err := traffic.NSFNetNominal()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestNewStreamRejectsNonFiniteHorizon: a NaN or infinite horizon never
// exhausts a pair, so the stream would never end.
func TestNewStreamRejectsNonFiniteHorizon(t *testing.T) {
	m := traffic.Uniform(4, 5)
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if _, err := NewStream(m, h, 1); err == nil {
			t.Errorf("NewStream horizon %v: want error", h)
		}
		if _, err := GenerateTraceHolding(m, h, 1, HoldingErlang2); err == nil {
			t.Errorf("GenerateTraceHolding horizon %v: want error", h)
		}
	}
}

// TestMaterializeAllocatesOnce: Materialize sizes its call slice from the
// stream's expected count, so a trace costs exactly two allocations (the
// slice and the Trace) beyond draining the same stream.
func TestMaterializeAllocatesOnce(t *testing.T) {
	// A collection cycle adds runtime allocations of its own to a count, so
	// the collector is off while counting, and a mismatch is counted again
	// (up to three times) to rule out a stray one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(f func()) float64 {
		runtime.GC()
		return testing.AllocsPerRun(1, f)
	}
	cases := []struct {
		name    string
		m       *traffic.Matrix
		horizon float64
		seeds   []int64
	}{
		{"nsfnet", nsfnetMatrix(t), 110, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"metro", metroMatrix(), 10, []int64{1}},
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			drain := func() {
				s, err := NewStream(c.m, c.horizon, seed)
				if err != nil {
					t.Fatal(err)
				}
				for {
					if _, ok := s.Next(); !ok {
						break
					}
				}
			}
			var tr *Trace
			materialize := func() { tr = GenerateTrace(c.m, c.horizon, seed) }
			extra := math.NaN()
			for try := 0; try < 3 && extra != 2; try++ {
				extra = count(materialize) - count(drain)
			}
			if cap(tr.Calls) < len(tr.Calls) || len(tr.Calls) == 0 {
				t.Fatalf("%s seed %d: len %d cap %d", c.name, seed, len(tr.Calls), cap(tr.Calls))
			}
			if extra != 2 {
				t.Errorf("%s seed %d: Materialize made %v allocations beyond the drain, want 2 (len %d, cap %d)",
					c.name, seed, extra, len(tr.Calls), cap(tr.Calls))
			}
		}
	}
}

// BenchmarkNewStream times arrival-stream set-up, the seeding layer of
// every stream-fed run: the 200-node metro, whose 39.8k pairs mostly draw
// a handful of variates, and NSFNet set-up plus a full drain, where every
// pair passes the point at which its generator register is built.
func BenchmarkNewStream(b *testing.B) {
	b.Run("metro200", func(b *testing.B) {
		m := metroMatrix()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewStream(m, 100, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nsfnet-drain", func(b *testing.B) {
		m := nsfnetMatrix(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := NewStream(m, 110, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, ok := s.Next(); !ok {
					break
				}
			}
		}
	})
}
