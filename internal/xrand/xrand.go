// Package xrand provides deterministic, stream-splittable pseudo-random
// number generation for the simulator. Every stream is derived from a
// (seed, key...) tuple via SplitMix64 mixing, so traffic traces are
// reproducible and independent per O-D pair regardless of generation order —
// the property that makes the paper's common-random-numbers methodology
// ("each algorithm was run with identical call arrivals and call holding
// times") exact rather than approximate.
//
// Streams from New draw exactly what math/rand's own source would for the
// mixed seed, but are seeded lazily: the generator's 607-word register is
// built only if a stream reaches its 274th draw, and earlier draws are
// computed from the seed in closed form (see source.go). A large sparse
// topology can therefore open one stream per O-D pair cheaply even when
// most pairs draw only a few variates per run.
package xrand

import (
	"math"
	"math/rand"
)

// splitmix64 advances and mixes a 64-bit state; it is the recommended seeder
// for other generators (Steele, Lea & Flood, "Fast Splittable Pseudorandom
// Number Generators").
func splitmix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix folds a sequence of keys into a seed, producing a well-distributed
// 64-bit stream identifier.
func Mix(seed int64, keys ...int64) uint64 {
	h := splitmix64(uint64(seed))
	for _, k := range keys {
		h = splitmix64(h ^ uint64(k))
	}
	return h
}

// Gen is a lazily seeded generator held by value, for callers that keep
// many streams and draw only uniforms and exponentials from them: an O-D
// pair's arrival stream embeds one instead of pointing at a rand.Rand. Its
// Float64 and Exp draws are bit-identical to those of rand.New over the
// same source, and *Gen is that source (a rand.Source64).
type Gen struct{ source }

// NewGen returns the generator for the mixed (seed, keys...) tuple: New's
// stream, held by value.
func NewGen(seed int64, keys ...int64) Gen {
	return Gen{*newSource(int64(Mix(seed, keys...)))}
}

// New returns a rand.Rand over NewGen(seed, keys...). Its draws are
// bit-identical to rand.New(rand.NewSource(int64(Mix(seed, keys...))));
// only the seeding is lazy.
func New(seed int64, keys ...int64) *rand.Rand {
	g := NewGen(seed, keys...)
	return rand.New(&g)
}

// Float64 returns a float64 in [0,1) exactly as rand.Rand.Float64 does.
//
//altlint:float-ok f == 1 is rand.Rand.Float64's resample test, copied so the draws stay bit-identical
func (g *Gen) Float64() float64 {
again:
	f := float64(g.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

// Exp draws an exponential variate with the given mean exactly as Exp
// does from a rand.Rand over the same source. It is written out rather
// than calling Exp through an interface, which would move every Gen that
// draws to the heap.
func (g *Gen) Exp(mean float64) float64 {
	u := g.Float64()
	for u == 0 {
		u = g.Float64()
	}
	return -mean * math.Log(u)
}

// Exp draws an exponential variate with the given mean from r, guarding
// against the zero tail of Float64 (log(0)).
func Exp(r *rand.Rand, mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Uniform01 returns a float64 in [0,1) derived statelessly from the tuple,
// for per-call deterministic choices (e.g. bifurcated primary selection)
// that must agree across policies under common random numbers.
func Uniform01(seed int64, keys ...int64) float64 {
	return float64(Mix(seed, keys...)>>11) / float64(1<<53)
}
