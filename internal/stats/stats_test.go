package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got, want := s.Mean(), 5.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// Sample stdev of this classic set is sqrt(32/7).
	if got, want := s.Stdev(), math.Sqrt(32.0/7.0); math.Abs(got-want) > 1e-9 {
		t.Errorf("stdev = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if s.N() != 8 {
		t.Errorf("n = %d, want 8", s.N())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Stdev() != 0 || s.N() != 0 {
		t.Error("zero-value summary must report zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Stdev() != 0 {
		t.Errorf("single observation: mean=%v stdev=%v", s.Mean(), s.Stdev())
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		var whole, a, b Summary
		for _, x := range xs {
			// Avoid pathological magnitudes from quick.
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			whole.Add(x)
		}
		mid := len(xs) / 2
		for i, x := range xs {
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			if i < mid {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.N() == whole.N() &&
			math.Abs(a.Mean()-whole.Mean()) < 1e-6*(1+math.Abs(whole.Mean())) &&
			math.Abs(a.Variance()-whole.Variance()) < 1e-5*(1+whole.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestProportion(t *testing.T) {
	p := Proportion{Successes: 83, Trials: 100}
	if math.Abs(p.Rate()-0.83) > 1e-9 {
		t.Errorf("rate = %v, want 0.83", p.Rate())
	}
	lo, hi := p.WilsonInterval(1.96)
	if !(lo < 0.83 && 0.83 < hi) {
		t.Errorf("interval [%v,%v] must contain the point estimate", lo, hi)
	}
	if lo < 0.7 || hi > 0.95 {
		t.Errorf("interval [%v,%v] implausibly wide for n=100", lo, hi)
	}
}

func TestProportionEdgeCases(t *testing.T) {
	zero := Proportion{}
	if zero.Rate() != 0 {
		t.Error("no-trials rate should be 0")
	}
	lo, hi := zero.WilsonInterval(1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("no-trials interval = [%v,%v], want [0,1]", lo, hi)
	}
	all := Proportion{Successes: 50, Trials: 50}
	lo, hi = all.WilsonInterval(1.96)
	if hi != 1 || lo < 0.9 {
		t.Errorf("all-success interval = [%v,%v]", lo, hi)
	}
	none := Proportion{Successes: 0, Trials: 50}
	lo, hi = none.WilsonInterval(1.96)
	if lo != 0 || hi > 0.1 {
		t.Errorf("no-success interval = [%v,%v]", lo, hi)
	}
}

func TestWilsonIntervalWithinBoundsProperty(t *testing.T) {
	f := func(succ, trials uint16) bool {
		n := int(trials%1000) + 1
		s := int(succ) % (n + 1)
		p := Proportion{Successes: s, Trials: n}
		lo, hi := p.WilsonInterval(1.96)
		return lo >= 0 && hi <= 1 && lo <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 {
		t.Errorf("under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("over = %d, want 2", h.Over)
	}
	if h.Bins[0] != 2 { // 0 and 1.9
		t.Errorf("bin0 = %d, want 2", h.Bins[0])
	}
	if h.Bins[1] != 1 { // 2
		t.Errorf("bin1 = %d, want 1", h.Bins[1])
	}
	if h.Bins[4] != 1 { // 9.99
		t.Errorf("bin4 = %d, want 1", h.Bins[4])
	}
	if h.Total() != 8 {
		t.Errorf("total = %d, want 8", h.Total())
	}
	if got := h.BinCenter(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("bin center = %v, want 1", got)
	}
}

func TestJitterStaysWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	j := Jitter{Rel: 0.05}
	base := 100 * time.Microsecond
	for i := 0; i < 10000; i++ {
		x := j.Sample(rng, base)
		lo := time.Duration(float64(base)*0.85) - 1
		hi := time.Duration(float64(base)*1.15) + 1
		if x < lo || x > hi {
			t.Fatalf("sample %v outside [%v, %v]", x, lo, hi)
		}
	}
}

func TestJitterZeroRelIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	j := Jitter{}
	if got := j.Sample(rng, time.Second); got != time.Second {
		t.Errorf("got %v, want 1s", got)
	}
}

func TestJitterMeanNearBase(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	j := Jitter{Rel: 0.1}
	var s Summary
	for i := 0; i < 20000; i++ {
		s.Add(float64(j.Sample(rng, time.Millisecond)))
	}
	if math.Abs(s.Mean()-1e6)/1e6 > 0.01 {
		t.Errorf("mean = %v, want within 1%% of 1e6", s.Mean())
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Summary
	for i := 0; i < 50000; i++ {
		s.Add(float64(Exponential(rng, time.Millisecond)))
	}
	if math.Abs(s.Mean()-1e6)/1e6 > 0.05 {
		t.Errorf("mean = %v, want within 5%% of 1e6", s.Mean())
	}
}

func TestUniformDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lo, hi := time.Millisecond, 2*time.Millisecond
	for i := 0; i < 1000; i++ {
		x := UniformDuration(rng, lo, hi)
		if x < lo || x >= hi {
			t.Fatalf("sample %v outside [%v, %v)", x, lo, hi)
		}
	}
	if UniformDuration(rng, hi, lo) != hi {
		t.Error("inverted range should return lo")
	}
}

func TestBernoulli(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if Bernoulli(rng, 0) {
		t.Error("p=0 must be false")
	}
	if !Bernoulli(rng, 1) {
		t.Error("p=1 must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if Bernoulli(rng, 0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("rate = %v, want ~0.3", rate)
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		xs = append(xs, float64(LogNormal(rng, time.Millisecond, 0.5)))
	}
	med := Percentile(xs, 50)
	if math.Abs(med-1e6)/1e6 > 0.03 {
		t.Errorf("median = %v, want within 3%% of 1e6", med)
	}
}

// TestSummaryMarshalJSONMatchesEncodingJSON pins the hand-written
// encoder to json.Marshal of the wire struct, byte for byte, across the
// float formatting edges: signed zeros, the 1e-6 and 1e21 exponent
// cutoffs, subnormals, large integers and random bit patterns.
func TestSummaryMarshalJSONMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.999999e-7,
		1e20, 1e21, -1e21, 123456789e13, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
		1 << 53, 1<<53 + 2, -(1 << 62), 1.0 / 3, 2.5e-10, 1.5e300,
	}
	rng := rand.New(rand.NewSource(9))
	for len(floats) < 2000 {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	for i, f := range floats {
		g := floats[(i*7+3)%len(floats)]
		s := Summary{n: rng.Int63() - rng.Int63(), mean: f, m2: g, min: -f, max: f * 3}
		if math.IsInf(s.max, 0) {
			s.max = f
		}
		want, err := json.Marshal(summaryJSON{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON(%v) = %s, %v\nwant %s", f, got, err, want)
		}
		// Nested in a struct, the outer encoder must see the same bytes.
		nested, err := json.Marshal(struct{ S Summary }{s})
		if err != nil || !bytes.Equal(nested, append(append([]byte(`{"S":`), want...), '}')) {
			t.Fatalf("nested encoding of %v = %s, %v", f, nested, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			s := Summary{n: 1}
			*[]*float64{&s.mean, &s.m2, &s.min, &s.max}[field] = bad
			if _, err := s.MarshalJSON(); err == nil {
				t.Errorf("MarshalJSON with %v in field %d: no error", bad, field)
			}
			if _, err := json.Marshal(s); err == nil {
				t.Errorf("json.Marshal with %v in field %d: no error", bad, field)
			}
		}
	}
}
