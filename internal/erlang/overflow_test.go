package erlang

import (
	"math"
	"testing"
)

func TestOverflowMomentsKnownProperties(t *testing.T) {
	// Mean is exactly λB; peakedness exceeds 1 for finite groups and grows
	// with the group size at fixed blocking.
	for _, load := range []float64{5, 20, 74} {
		for _, c := range []int{1, 10, 50} {
			m, v := OverflowMoments(load, c)
			if want := load * B(load, c); math.Abs(m-want) > 1e-12 {
				t.Errorf("mean(%v,%d) = %v, want %v", load, c, m, want)
			}
			if m > 0 && v/m <= 1 {
				t.Errorf("peakedness(%v,%d) = %v, want > 1", load, c, v/m)
			}
		}
	}
	if z := Peakedness(0, 10); z != 1 {
		t.Errorf("zero load peakedness %v", z)
	}
	// C=0 overflows everything: the overflow IS the Poisson stream (z=1).
	if z := Peakedness(10, 0); math.Abs(z-1) > 1e-9 {
		t.Errorf("C=0 peakedness %v, want 1", z)
	}
}

func TestOverflowPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("OverflowMoments negative capacity", func() { OverflowMoments(1, -1) })
	mustPanic("Peakedness infinite load", func() { Peakedness(math.Inf(1), 5) })
}
