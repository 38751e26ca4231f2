package stats

import (
	"math"
	"math/rand"
	"time"
)

// Jitter samples latencies around a base value with bounded relative noise.
// It models the environmental variance the paper observes in L and D:
// "the running environment imposes variance on these parameters" (§3.4).
//
// Samples are drawn from a normal distribution with mean Base and standard
// deviation Rel*Base, truncated to [Base*(1-3*Rel), Base*(1+3*Rel)] and
// floored at zero, so a latency can never be negative and extreme outliers
// cannot destabilize calibration.
type Jitter struct {
	// Rel is the relative standard deviation (e.g. 0.05 for 5%).
	Rel float64
}

// Sample draws one jittered value around base.
func (j Jitter) Sample(rng *rand.Rand, base time.Duration) time.Duration {
	if base <= 0 || j.Rel <= 0 {
		return base
	}
	sigma := j.Rel * float64(base)
	x := float64(base) + rng.NormFloat64()*sigma
	lo := float64(base) - 3*sigma
	hi := float64(base) + 3*sigma
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	if x < 0 {
		x = 0
	}
	return time.Duration(x)
}

// Exponential samples an exponentially distributed duration with the given
// mean. Used for Poisson inter-arrival times of background kernel activity.
func Exponential(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// UniformDuration samples uniformly from [lo, hi). If hi <= lo it returns lo.
func UniformDuration(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// LogNormal samples a log-normally distributed duration whose underlying
// normal has the given median and sigma (of the log). Used for occasional
// heavy-tailed delays such as disk I/O service times.
func LogNormal(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	if median <= 0 {
		return 0
	}
	return time.Duration(float64(median) * math.Exp(rng.NormFloat64()*sigma))
}
