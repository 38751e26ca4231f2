// Package stats provides small, dependency-free statistical helpers used
// throughout the simulator and the experiment harness: running summaries
// (Welford), percentiles, binomial confidence intervals, and the jitter
// distributions that model environmental variance in syscall latencies.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
)

// Summary accumulates a running mean and standard deviation using
// Welford's online algorithm. The zero value is ready to use.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations recorded.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 if no observations were recorded.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 if none were recorded.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if none were recorded.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (n-1 denominator).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stdev returns the sample standard deviation.
func (s *Summary) Stdev() float64 { return math.Sqrt(s.Variance()) }

// Merge folds the observations of other into s.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	total := n1 + n2
	s.mean += delta * n2 / total
	s.m2 += other.m2 + delta*delta*n1*n2/total
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n += other.n
}

// String renders the summary as "mean ± stdev (n=N)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean(), s.Stdev(), s.N())
}

// summaryJSON is Summary's wire form, exposing the unexported Welford state
// for checkpoint files. encoding/json prints floats in their shortest
// uniquely-decodable form, so the round-trip is exact and a resumed summary
// is bit-identical to the in-memory one it serialized.
type summaryJSON struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON implements json.Marshaler. It appends summaryJSON's
// encoding directly, byte-identical to json.Marshal of it: a result
// carries about twenty summaries, and each nested json.Marshal would
// cost its own encoder.
func (s Summary) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 128)
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, s.n, 10)
	for _, f := range [...]struct {
		name string
		v    float64
	}{{`,"mean":`, s.mean}, {`,"m2":`, s.m2}, {`,"min":`, s.min}, {`,"max":`, s.max}} {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f.v), Str: strconv.FormatFloat(f.v, 'g', -1, 64)}
		}
		b = appendJSONFloat(append(b, f.name...), f.v)
	}
	return append(b, '}'), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest round-tripping decimal, in exponent form only for magnitudes
// below 1e-6 or from 1e21 up, with the exponent's leading zero dropped
// (1e-07 becomes 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var w summaryJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = Summary{n: w.N, mean: w.Mean, m2: w.M2, min: w.Min, max: w.Max}
	return nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
// The input slice is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Proportion is an observed success proportion with its sample size.
type Proportion struct {
	Successes int
	Trials    int
}

// Rate returns the observed success rate in [0, 1], or 0 with no trials.
func (p Proportion) Rate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// WilsonInterval returns the Wilson score interval for the proportion at
// the given z value (1.96 for 95% confidence). It is well behaved near 0
// and 1, unlike the normal approximation.
func (p Proportion) WilsonInterval(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	phat := p.Rate()
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	margin := z / denom * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String renders the proportion as "k/n (rate%)".
func (p Proportion) String() string {
	return fmt.Sprintf("%d/%d (%.1f%%)", p.Successes, p.Trials, p.Rate()*100)
}

// Histogram counts observations into fixed-width bins over [Lo, Hi).
// Observations outside the range are counted in Under/Over.
type Histogram struct {
	Lo, Hi float64
	Bins   []int64
	Under  int64
	Over   int64
}

// NewHistogram creates a histogram with n bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
		if i >= len(h.Bins) { // float edge case at the upper boundary
			i = len(h.Bins) - 1
		}
		h.Bins[i]++
	}
}

// Total returns the number of observations recorded, including out-of-range.
func (h *Histogram) Total() int64 {
	t := h.Under + h.Over
	for _, b := range h.Bins {
		t += b
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + w*(float64(i)+0.5)
}
