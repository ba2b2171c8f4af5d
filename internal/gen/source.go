package gen

import (
	"math/rand"
	"sync"
)

// source is math/rand's lagged-Fibonacci generator (the one behind
// rand.NewSource): the same register, tap and feed, so Int63 and Uint64
// give exactly rand.NewSource's sequence for every seed, and every draw
// of the rand.Rand wrapping it is unchanged. Only Seed differs, in how
// it computes the same register.
//
// rand.NewSource fills the 607-word register from a Lehmer generator
// x_{k+1} = 48271·x_k mod (2³¹−1), stepped 1841 times in one dependent
// chain. Here the k-th state is the jump-ahead 48271^k·x₀ mod (2³¹−1),
// one multiply-and-fold from a power table, so the 1841 steps are
// independent. Every register word is also XORed with a fixed "cooked"
// word; those are recovered, with the power table, on the first Seed
// (see cookWords). DESIGN.md, "Performance", derives both.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271
	// lehmerSkip is the number of states Seed discards before the
	// first register word.
	lehmerSkip = 20
)

var (
	tablesOnce sync.Once
	// powers[i] holds 48271^k mod (2³¹−1) for the three states k that
	// make register word i: 21+3i, 22+3i and 23+3i.
	powers [rngLen][3]uint64
	cooked [rngLen]int64
)

// newSource returns a source seeded like rand.NewSource(seed).
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed sets the register to rand.NewSource(seed)'s initial state.
func (s *source) Seed(seed int64) {
	tablesOnce.Do(initTables)
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		s.vec[i] = lehmerWord(&powers[i], x) ^ cooked[i]
	}
}

// lehmerWord mixes the three Lehmer states of one register word from
// seed state x, as rand's Seed does before its cooked XOR.
func lehmerWord(p *[3]uint64, x uint64) int64 {
	return int64(mulMod(p[0], x))<<40 ^ int64(mulMod(p[1], x))<<20 ^ int64(mulMod(p[2], x))
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹. The product fits 62
// bits; since 2³¹ ≡ 1, folding its high 31 bits onto its low 31 keeps
// the residue and leaves t ≤ 2(2³¹−1). Then t+1 carries into bit 31
// exactly when t ≥ 2³¹−1, and adding that carry before masking is the
// one subtraction of the modulus t needs, without a branch.
func mulMod(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	return (t + (t+1)>>31) & int32max
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// initTables fills the power table and recovers the cooked words.
func initTables() {
	p := uint64(1)
	for range lehmerSkip {
		p = mulMod(p, lehmerA)
	}
	for i := range powers {
		for j := range powers[i] {
			p = mulMod(p, lehmerA)
			powers[i][j] = p
		}
	}
	cookWords()
}

// cookWords recovers rand's cooked words from the first 607 outputs of
// rand.NewSource(1). Output j adds the register words at feed
// f_j = (333−j) mod 607 and tap 606−j and stores the sum at f_j, so the
// tap word is an initial one for j < 273 and output j−273 after. Hence
// outputs 273…606 give the initial words at their feeds, 0…60 and
// 334…606, and outputs 0…272 the rest, 61…333, by subtracting their
// now known tap words. XORing each initial word with seed 1's Lehmer
// word leaves the cooked one.
func cookWords() {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen]uint64
	for j := range out {
		out[j] = src.Uint64()
	}
	var initial [rngLen]uint64
	feed := func(j int) int { return (rngLen - rngTap - 1 - j + rngLen) % rngLen }
	for j := rngTap; j < rngLen; j++ {
		initial[feed(j)] = out[j] - out[j-rngTap]
	}
	for j := range rngTap {
		initial[feed(j)] = out[j] - initial[rngLen-1-j]
	}
	for i := range cooked {
		cooked[i] = int64(initial[i]) ^ lehmerWord(&powers[i], 1)
	}
}
