package sim

import (
	"math/rand"
	"testing"
)

// TestFastDistMatchesMathRand checks fastSource's direct Float64,
// NormFloat64 and ExpFloat64 against math/rand's streams. The draw counts
// are chosen so every code path runs many times: the base-strip tails
// fire roughly once per ~400 (normal) / ~380 (exponential) draws.
func TestFastDistMatchesMathRand(t *testing.T) {
	if !fastSeedOK {
		t.Skip("fastSource failed its init-time validation: kernels draw through math/rand")
	}
	for _, seed := range []int64{1, 7, 1007, -404, 3 << 60} {
		var src fastSource
		src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 20_000; i++ {
			if got, want := src.NormFloat64(), ref.NormFloat64(); got != want {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, math/rand %v", seed, i, got, want)
			}
			if got, want := src.ExpFloat64(), ref.ExpFloat64(); got != want {
				t.Fatalf("seed %d draw %d: ExpFloat64 = %v, math/rand %v", seed, i, got, want)
			}
			if got, want := src.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, got, want)
			}
		}
	}
}
