package sim

import "math"

// This file gives fastSource direct Float64 / NormFloat64 / ExpFloat64
// methods that reproduce math/rand's value streams bit for bit. Routing
// the kernel's hot distribution draws here instead of through *rand.Rand
// removes an interface dispatch per underlying Int63 and lets the source's
// lagged-Fibonacci step inline into the ziggurat loops — worth it because
// a simulated round draws a jittered latency per modeled syscall/compute
// and two noise draws per background burst. The algorithms and strip
// tables (zigtables.go) are exactly math/rand's;
// TestFastDistMatchesMathRand checks the streams against the stdlib.

const (
	zigRn = 3.442619855899      // rightmost strip start, normal ziggurat
	zigRe = 7.69711747013104972 // rightmost strip start, exponential ziggurat
)

func zigAbs(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

func (s *fastSource) uint32() uint32 { return uint32(s.Int63() >> 31) }

// Float64 mirrors rand.Rand.Float64 (including the retry-on-1.0 quirk the
// stdlib preserves for stream compatibility).
func (s *fastSource) Float64() float64 {
	for {
		f := float64(s.Int63()) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}

// NormFloat64 mirrors rand.Rand.NormFloat64: the Marsaglia-Tsang ziggurat
// over 128 strips, identical table walk, identical draw sequence.
func (s *fastSource) NormFloat64() float64 {
	for {
		j := int32(s.uint32())
		i := j & 0x7F
		x := float64(j) * float64(zigWn[i])
		if zigAbs(j) < zigKn[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(s.Float64()) * (1.0 / zigRn)
				y := -math.Log(s.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigRn + x
			}
			return -zigRn - x
		}
		if zigFn[i]+float32(s.Float64())*(zigFn[i-1]-zigFn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

// ExpFloat64 mirrors rand.Rand.ExpFloat64: the 256-strip exponential
// ziggurat, identical table walk, identical draw sequence.
func (s *fastSource) ExpFloat64() float64 {
	for {
		j := s.uint32()
		i := j & 0xFF
		x := float64(j) * float64(zigWe[i])
		if j < zigKe[i] {
			return x
		}
		if i == 0 {
			return zigRe - math.Log(s.Float64())
		}
		if zigFe[i]+float32(s.Float64())*(zigFe[i-1]-zigFe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}
