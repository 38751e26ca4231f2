package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// TestFig6MetricsSummarySweepStable is the golden-stability check for the
// -metrics rendering: the full fig6 output including the kernel-metrics
// section must be byte-identical between a parallel and a GOMAXPROCS=1
// run — rendering is pure formatting over a deterministic aggregate, so
// any divergence is an ordering bug in the fold, not noise.
func TestFig6MetricsSummarySweepStable(t *testing.T) {
	opt := Options{Rounds: 40, Sizes: []int{100, 400, 1000}, Metrics: true}
	res, err := Run("fig6", opt)
	if err != nil {
		t.Fatal(err)
	}
	parallel := render(t, res)

	prev := runtime.GOMAXPROCS(1)
	res1, err := Run("fig6", opt)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	serial := render(t, res1)

	if parallel != serial {
		t.Fatalf("fig6 -metrics output depends on parallelism:\n--- gomaxprocs=n ---\n%s\n--- gomaxprocs=1 ---\n%s", parallel, serial)
	}

	for _, want := range []string{
		"Kernel metrics",
		"dispatch",
		"sem-wait µs",
		"windows",
		"vulnerability window (µs, log₂ buckets, pooled)",
		"detection latency D (µs, log₂ buckets, pooled)",
		"laxity L (µs, log₂ buckets, pooled)",
	} {
		if !strings.Contains(parallel, want) {
			t.Errorf("fig6 -metrics output missing %q", want)
		}
	}
	// Rows for each requested sweep point.
	for _, label := range []string{"100 KB", "400 KB", "1000 KB"} {
		if !strings.Contains(parallel, label) {
			t.Errorf("fig6 -metrics output missing point row %q", label)
		}
	}
}

// TestHeadlineMetricsSweepRenders asserts the headline experiment's
// -metrics section renders with per-scenario rows and latency data.
func TestHeadlineMetricsSweepRenders(t *testing.T) {
	res, err := Headline(Options{Rounds: 30, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, res)
	for _, want := range []string{
		"Kernel metrics",
		"vi 100KB / SMP 2-way",
		"gedit v2 / multi-core 4-way",
		"laxity L (µs, log₂ buckets, pooled)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("headline -metrics output missing %q", want)
		}
	}
}

// TestFig6WithoutMetricsOmitsSection pins the default rendering: no
// -metrics flag, no metrics section.
func TestFig6WithoutMetricsOmitsSection(t *testing.T) {
	res, err := Run("fig6", Options{Rounds: 20, Sizes: []int{100}})
	if err != nil {
		t.Fatal(err)
	}
	if out := render(t, res); strings.Contains(out, "Kernel metrics") {
		t.Error("fig6 without Metrics must not render the metrics section")
	}
}
