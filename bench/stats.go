package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"tocttou/internal/stats"
)

// tailPercentiles are the percentiles a distribution may be summarized
// by, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// highestPercentile returns the highest percentile of tailPercentiles
// that has at least ten of n samples beyond it; ok is false when even the
// median has fewer.
func highestPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// describe renders a sample as its median and its highest well-supported
// percentile, with the sample count.
func describe(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("p50=%.4g", stats.Percentile(xs, 50))
	if p, ok := highestPercentile(len(xs)); ok && p > 50 {
		s += fmt.Sprintf(" p%g=%.4g", p, stats.Percentile(xs, p))
	}
	return s + fmt.Sprintf(" n=%d", len(xs))
}

// quartiles returns the three cut points of xs into four groups exactly
// as Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method), so spreads printed here match the ones a Python reader
// computes from the same runs. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// outputDigest is the FNV-64a hash of the reports in order, each
// prefixed by its length so that no two sequences collide by
// concatenation.
func outputDigest(reports [][]byte) string {
	h := fnv.New64a()
	for _, r := range reports {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(r)))
		h.Write(n[:])
		h.Write(r)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
