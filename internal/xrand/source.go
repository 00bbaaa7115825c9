package xrand

import "math/rand"

// The generator behind every stream is math/rand's additive lagged
// Fibonacci source (Mitchell and Reeds: 607 words, tap 273), reproduced bit
// for bit but seeded lazily.
//
// Seeding a math/rand source fills all 607 register words at once, about
// 13 µs and 5 KB per stream, while the sparse O-D pairs of a large
// topology draw only a handful of variates per run. The register is not
// needed that early. A freshly seeded source has tap = 0 and feed = 334,
// so draw n (1 ≤ n ≤ 273) returns vec[334−n] + vec[607−n] and writes the
// sum to vec[334−n]. Neither word it reads has been written yet; draw 274
// is the first to read a written word (vec[333], written by draw 1). Every
// seeded word is a closed form of the reduced seed x₀:
//
//	vec[i] = x₍₂₁₊₃ᵢ₎<<40 ^ x₍₂₂₊₃ᵢ₎<<20 ^ x₍₂₃₊₃ᵢ₎ ^ cooked[i],  x_k = 48271^k·x₀ mod (2³¹−1)
//
// so the first 273 draws cost six table-lookup multiply-mods each. The
// 274th draw builds the register from the same closed form, replays the
// 273 writes, and hands over to the standard step.
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // feed index of a freshly seeded source
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the LCG modulus M = 2³¹−1
	lcgMul   = 48271
	// lcgSkip LCG steps precede the first seeded word.
	lcgSkip = 20
	// powLen covers x_k for every k the seeding walk reaches.
	powLen = lcgSkip + 3*rngLen + 1
)

var (
	// rngCooked is math/rand's unexported seeding table.
	rngCooked [rngLen]int64
	// lcgPow[k] = 48271^k mod M.
	lcgPow [powLen]uint64
)

func init() {
	lcgPow[0] = 1
	for k := 1; k < powLen; k++ {
		lcgPow[k] = mulMod(lcgPow[k-1], lcgMul)
	}
	rngCooked = recoverCooked()
}

// recoverCooked inverts the first 607 outputs of math/rand's source for
// seed 1, which determine its initial register; XORing out the LCG part
// of each word leaves the cooked table of the installed toolchain.
func recoverCooked() [rngLen]int64 {
	std := rand.NewSource(1).(rand.Source64)
	var u [rngLen + 1]int64 // u[n] is draw n, 1-based
	for n := 1; n <= rngLen; n++ {
		u[n] = int64(std.Uint64())
	}
	// Draw n (n > 273) reads the word draw n−273 wrote at its tap and the
	// still-unwritten word at its feed: draws 274–334 give words 0–60,
	// draws 335–607 give words 334–606.
	var vec [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		feed := (rngFeed - n + rngLen) % rngLen
		vec[feed] = u[n] - u[n-rngTap]
	}
	// Draws 1–273 then give words 61–333.
	for n := 1; n <= rngTap; n++ {
		vec[rngFeed-n] = u[n] - vec[rngLen-n]
	}
	var cooked [rngLen]int64
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgWord(1, i)
	}
	return cooked
}

// mulMod returns a·b mod M for a, b < 2³¹ by Mersenne reduction. The
// operands here are never ≡ 0, so one conditional subtract is exact.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := (p & int32max) + (p >> 31)
	if r >= int32max {
		r -= int32max
	}
	return r
}

// reduceSeed maps a seed to the LCG start x₀ exactly as math/rand's
// rngSource.Seed does.
func reduceSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgWord is the LCG part of seeded register word i: x₍₂₁₊₃ᵢ₎<<40 ^
// x₍₂₂₊₃ᵢ₎<<20 ^ x₍₂₃₊₃ᵢ₎ for the reduced seed x0.
func lcgWord(x0 uint64, i int) int64 {
	k := lcgSkip + 1 + 3*i
	return int64(mulMod(lcgPow[k], x0)<<40 ^ mulMod(lcgPow[k+1], x0)<<20 ^ mulMod(lcgPow[k+2], x0))
}

// source is a lazily seeded math/rand source: same Seed, Int63 and Uint64
// outputs as rand.NewSource, with the register built only at draw 274.
type source struct {
	x0        uint64         // reduced seed
	n         int            // draws taken before the register exists
	tap, feed int            // register indices, valid once vec != nil
	vec       *[rngLen]int64 // nil for the first 273 draws
}

// newSource returns the source rand.NewSource(seed) would return.
func newSource(seed int64) *source {
	return &source{x0: reduceSeed(seed)}
}

// Seed implements rand.Source; it resets the stream to its first draw.
func (s *source) Seed(seed int64) {
	*s = source{x0: reduceSeed(seed)}
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 {
	if s.vec == nil {
		return int64(s.early() & rngMask)
	}
	return int64(s.step() & rngMask)
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		return s.early()
	}
	return s.step()
}

// step is math/rand's register step. It stays inlinable; the lazy phase
// lives out of line in early.
func (s *source) step() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// early serves draws 1–273 from the closed form and builds the register
// at draw 274.
func (s *source) early() uint64 {
	if s.n < rngTap {
		s.n++
		return uint64(s.word(rngFeed-s.n) + s.word(rngLen-s.n))
	}
	s.build()
	return s.step()
}

// word is seeded register word i.
func (s *source) word(i int) int64 {
	return lcgWord(s.x0, i) ^ rngCooked[i]
}

// build seeds the register, replays the 273 writes the early draws made,
// and positions tap and feed after them.
func (s *source) build() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = s.word(i)
	}
	for n := 1; n <= rngTap; n++ {
		vec[rngFeed-n] += vec[rngLen-n]
	}
	s.vec = vec
	s.tap = rngLen - rngTap
	s.feed = rngFeed - rngTap
}
