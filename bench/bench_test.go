package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"tocttou/internal/scenario"
)

// TestMain lets the test binary stand in for the benchmark binary as a
// campaignd worker: the smoke runs spawn it with -worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

func TestSpecsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < 24; i++ {
			a, b := w.spec(1, i, fullScale), w.spec(1, i, fullScale)
			if a != b {
				t.Fatalf("%s campaign %d: same seed, different spec text", w.name, i)
			}
			if c := w.spec(2, i, fullScale); c == a {
				t.Fatalf("%s campaign %d: seeds 1 and 2 give the same spec text", w.name, i)
			}
			spec, err := scenario.Parse([]byte(a), false)
			if err == nil {
				_, err = scenario.Compile(spec)
			}
			if err != nil {
				t.Fatalf("%s campaign %d: %v\n%s", w.name, i, err, a)
			}
		}
	}
}

func TestFleetSizesStayInRangeAndSpreadEvenly(t *testing.T) {
	const strata, n = 8, 64
	var all, even [strata]int
	for i := 0; i < n; i++ {
		if size := fleetTotal(i, fullScale); size < 16 || size > 256 {
			t.Fatalf("campaign %d: %d members, want [16, 256]", i, size)
		}
		k := int(goldenPoint(i) * strata)
		all[k]++
		if i%2 == 0 {
			even[k]++
		}
	}
	for k := 0; k < strata; k++ {
		if all[k] < n/strata-1 || all[k] > n/strata+1 || even[k] < n/strata/2-1 || even[k] > n/strata/2+1 {
			t.Errorf("stratum %d of the log size range holds %d of the first %d campaigns (%d even), want %d±1 (%d±1)",
				k, all[k], n, even[k], n/strata, n/strata/2)
		}
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := highestPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v %v, want 2.75 5.5 8.25", q1, q2, q3, ok)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", StartNS: 90, EndNS: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if got := self["campaign"]; got != 40 {
		t.Errorf("campaign self time = %v, want 40ns", got)
	}
	if got := self["b"]; got != 60 {
		t.Errorf("b self time = %v, want 60ns", got)
	}
}

func TestClassify(t *testing.T) {
	bound := 0.1
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{100, 101, 99, 100}, "higher", "same"},
		{[]float64{120, 121, 119, 120}, "higher", "improved"},
		{[]float64{120, 121, 119, 120}, "lower", "regressed"},
		{[]float64{60, 140, 100, 70, 130}, "higher", "unresolved"},
	} {
		if _, got := classify(base, c.b, c.better, &bound); got != c.want {
			t.Errorf("classify(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}

// A count that is 0 on a clean run (workerpool.leases_requeued) must
// compare without dividing by its zero median.
func TestClassifyZeroBaseline(t *testing.T) {
	bound := 0.1
	zeros := []float64{0, 0, 0, 0}
	for _, c := range []struct {
		b          []float64
		want, text string
	}{
		{[]float64{0, 0, 0}, "same", "0→0"},
		{[]float64{1, 1, 2}, "regressed", "0→1"},
	} {
		change, got := classify(zeros, c.b, "lower", &bound)
		if math.IsNaN(change) || got != c.want {
			t.Errorf("classify(zeros, %v) = %v, %s; want %s", c.b, change, got, c.want)
		}
		if text := changeText(zeros, c.b, change); text != c.text {
			t.Errorf("changeText(zeros, %v) = %q, want %q", c.b, text, c.text)
		}
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestNamesAndBenchmarkFileAgree(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || !namePattern.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	for _, set := range []struct {
		file []benchMetric
		defs []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(set.file) != len(set.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark emits %d", len(set.file), len(set.defs))
		}
		for i, d := range set.defs {
			f := set.file[i]
			if f.Name != d.name || f.Unit != d.unit || !namePattern.MatchString(d.name) {
				t.Errorf("metric %d: BENCHMARK.json %s %s, benchmark %s %s", i, f.Name, f.Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmokeRunEmitsEveryMetric runs each workload shrunken to a few
// tiny campaigns, traced, and requires a correct run that reports every
// end-to-end and per-layer metric as a finite number.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := run(runConfig{w: w, seed: 7, trace: true, dir: dir, sc: smokeScale})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < smokeScale.minCampaigns {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%q", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			for _, set := range []struct {
				got  map[string]metric
				defs []metricDef
			}{{res.EndToEnd, endToEnd}, {res.PerLayer, perLayer}} {
				for _, d := range set.defs {
					m, ok := set.got[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v, present %v", d.name, m, ok)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(dir, w.name+".spans.jsonl")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}
