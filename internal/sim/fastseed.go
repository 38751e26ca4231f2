package sim

import "math/rand"

// This file gives the kernel its one generator: NewRand wraps fastSource,
// an exact replica of math/rand's additive lagged-Fibonacci source, in a
// *rand.Rand, so every draw (Float64, NormFloat64, ExpFloat64, Intn, ...)
// runs math/rand's own code over a state vector math/rand would hold.
// What the replica changes is the reseed. math/rand's Seed costs 1841
// sequential Lehmer (48271·x mod 2³¹−1) steps computed with Schrage
// divisions, which profiling showed is ~15% of a short simulation round
// once the rest of the hot path is allocation-free. fastSource.Seed
// computes each LCG value as one independent product with a precomputed
// power table (48271^i mod M) and a Mersenne-prime fold, so the chain's
// data dependency disappears and the CPU overlaps the multiplies.
//
// The streams equal math/rand's by construction: the recurrence and the
// seeding arithmetic are math/rand's, and the one piece of math/rand's
// state that is not public, its 607-entry warm-up table, is recovered at
// init from a stdlib source's public output (recoverCookedTab).
// TestFastSourceMatchesMathRand is the guard: it compares every kind of
// draw the kernel makes, and a reseed, against math/rand for a spread of
// seeds.

const (
	rngLen  = 607
	rngTap  = 273
	lehmerM = (1 << 31) - 1 // 2³¹−1, prime modulus of the seeding LCG
	lehmerA = 48271
)

// rngCookedTab is math/rand's rngCooked warm-up table: a seeded state
// vector is vec[i] = lcg_i ^ cooked[i], with lcg_i computable here.
var rngCookedTab [rngLen]uint64

// lehmerMul advances one Lehmer step with multiplier a (a < 2³¹): one
// 64-bit multiply and a Mersenne-prime fold instead of Schrage's two
// divisions. x, result ∈ [1, M−1].
func lehmerMul(x, a uint64) uint64 {
	p := a * x
	p = (p & lehmerM) + (p >> 31)
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// lehmerPow[i] is 48271^(i+1) mod M. With the power table precomputed the
// i-th seeding-LCG value is the single independent product
// lehmerPow[i]·seed mod M — no dependency chain at all — so Seed runs at
// multiplier throughput instead of fold-latency.
var lehmerPow [1848]uint64

func init() {
	x := uint64(1)
	for i := range lehmerPow {
		x = lehmerMul(x, lehmerA)
		lehmerPow[i] = x
	}
	recoverCookedTab()
}

// normSeed maps an arbitrary seed onto the Lehmer LCG's state space
// [1, M−1], matching math/rand's normalization exactly.
func normSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// recoverCookedTab reads the warm-up table back out of rand.NewSource(1).
// Each draw of the source stores its output in the slot it returns, and
// the first 607 draws write every slot once, so after them the whole state
// vector is known. Stepping the recurrence back 607 times (each step added
// the tap slot to the feed slot) restores the freshly seeded vector, and
// XORing out seed 1's LCG contribution leaves the table.
func recoverCookedTab() {
	ref := rand.New(rand.NewSource(1))
	s := fastSource{feed: rngLen - rngTap}
	for range rngLen {
		s.step()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range rngLen {
		s.vec[s.feed] -= s.vec[s.tap]
		if s.tap++; s.tap == rngLen {
			s.tap = 0
		}
		if s.feed++; s.feed == rngLen {
			s.feed = 0
		}
	}
	x := normSeed(1)
	pw := lehmerPow[20 : 20+3*rngLen]
	for i := range rngCookedTab {
		u := lehmerMul(pw[3*i], x)<<40 ^ lehmerMul(pw[3*i+1], x)<<20 ^ lehmerMul(pw[3*i+2], x)
		rngCookedTab[i] = uint64(s.vec[i]) ^ u
	}
}

// fastSource is a rand.Source64 producing streams bit-identical to
// rand.NewSource(seed): the same additive lagged-Fibonacci recurrence over
// the same seeded state vector.
type fastSource struct {
	tap, feed int
	vec       [rngLen]int64
}

// Seed resets the generator to the exact state math/rand's Seed(seed)
// produces: vec[i] packs three consecutive seeding-LCG values (after a
// 20-step warm-up) XORed with the cooked table. The LCG values are
// computed inline from the power table — three independent multiplies per
// entry, no intermediate array.
func (s *fastSource) Seed(seed int64) {
	x := normSeed(seed)
	s.tap = 0
	s.feed = rngLen - rngTap
	pw := lehmerPow[20 : 20+3*rngLen : 20+3*rngLen]
	for i := 0; i < rngLen; i++ {
		base := 3 * i
		u := lehmerMul(pw[base], x)<<40 ^
			lehmerMul(pw[base+1], x)<<20 ^
			lehmerMul(pw[base+2], x) ^
			rngCookedTab[i]
		s.vec[i] = int64(u)
	}
}

// step moves tap and feed back one slot, as every draw does first.
func (s *fastSource) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 mirrors math/rand's rngSource.Uint64.
func (s *fastSource) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 mirrors math/rand's rngSource.Int63.
func (s *fastSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// NewRand returns a generator whose stream equals
// rand.New(rand.NewSource(seed)). Its Seed method restarts the stream in
// place through fastSource.Seed, without the stdlib's 1841-step seeding
// chain, so a per-round generator is reseeded instead of reallocated.
func NewRand(seed int64) *rand.Rand {
	s := &fastSource{}
	s.Seed(seed)
	return rand.New(s)
}
