package sim

import (
	"math/rand"
	"testing"
)

// TestFastSourceMatchesMathRand checks NewRand's streams against
// rand.New(rand.NewSource(seed)) for every kind of draw the kernel makes,
// then once more after a reseed, which is what Reset and Fork do per
// round. The draw counts are chosen so every ziggurat path runs many
// times: the base-strip tails fire roughly once per ~400 (normal) / ~380
// (exponential) draws. The seeds cover zero (math/rand's substitute
// seed), negative seeds, a seed beyond 2³¹ and the LCG modulus itself.
func TestFastSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1007, -9, -404, 3 << 60, lehmerM} {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 20_000; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("seed %d draw %d: ExpFloat64 = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, g, w)
			}
		}
		reseed := seed ^ 0x5eed
		got.Seed(reseed)
		want.Seed(reseed)
		for i := 0; i < 2*rngLen; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d reseeded to %d, draw %d: Int63 = %v, math/rand %v", seed, reseed, i, g, w)
			}
		}
	}
}
