package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// exactSeeds are the seeds whose reduction takes every branch of
// rngSource.Seed (negative, zero after reduction, multiples of 2³¹−1, the
// 89482311 substitute, the int64 extremes) plus 211 Mix-derived seeds, the
// kind New actually passes.
func exactSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 1 << 62, -(1 << 62), int32max, -int32max,
		2 * int32max, -2 * int32max, 7 * int32max, int32max - 1, int32max + 1,
		89482311, -89482311, math.MinInt64, math.MaxInt64,
	}
	for k := int64(0); k < 211; k++ {
		seeds = append(seeds, int64(Mix(k, k*7919)))
	}
	return seeds
}

// exactDraws crosses draw 273 (the last closed-form draw), 607 (the feed
// wrap) and 880 (the second tap wrap).
const exactDraws = 2*rngLen + 17

// TestSourceMatchesStdlib compares the lazily seeded source with
// math/rand's, through every rand.Rand path the simulator uses.
func TestSourceMatchesStdlib(t *testing.T) {
	type drawFn func(r *rand.Rand) uint64
	methods := []struct {
		name string
		draw drawFn
	}{
		{"Uint64", func(r *rand.Rand) uint64 { return r.Uint64() }},
		{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
		{"Exp", func(r *rand.Rand) uint64 { return math.Float64bits(Exp(r, 0.37)) }},
	}
	for _, seed := range exactSeeds() {
		for _, m := range methods {
			got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
			for n := 1; n <= exactDraws; n++ {
				if g, w := m.draw(got), m.draw(want); g != w {
					t.Fatalf("seed %d %s draw %d: got %#x, want %#x", seed, m.name, n, g, w)
				}
			}
		}
	}
}

// TestSourceReseedMidStream checks that Seed resets the source to its
// first draw, both before and after the register is built.
func TestSourceReseedMidStream(t *testing.T) {
	for _, at := range []int{0, 100, rngTap, rngTap + 1, 700} {
		got, want := rand.New(newSource(5)), rand.New(rand.NewSource(5))
		for n := 0; n < at; n++ {
			got.Uint64()
			want.Uint64()
		}
		got.Seed(-12345)
		want.Seed(-12345)
		for n := 1; n <= exactDraws; n++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseed after %d draws, draw %d: got %#x, want %#x", at, n, g, w)
			}
		}
	}
}

// TestNewMatchesStdlibSeeding pins New's contract: the stream keyed by
// (seed, keys...) is math/rand's stream for the mixed seed.
func TestNewMatchesStdlibSeeding(t *testing.T) {
	got := New(7, 3, 4)
	want := rand.New(rand.NewSource(int64(Mix(7, 3, 4))))
	for n := 1; n <= exactDraws; n++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("draw %d: got %v, want %v", n, g, w)
		}
	}
}

// FuzzSourceMatchesStdlib compares the first draws of the lazily seeded
// source with math/rand's for arbitrary seeds.
func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), uint16(rngTap+1))
	f.Add(int64(math.MinInt64), uint16(2*rngLen))
	f.Add(int64(int32max), uint16(900))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
		for n := 1; n <= int(draws); n++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, n, g, w)
			}
		}
	})
}
