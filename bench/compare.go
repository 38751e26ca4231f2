package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the compare mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// compareMain compares two sets of runs, each a directory searched for
// results.json files: per workload and metric it prints each side's
// median and quartiles and classifies the change with BENCHMARK.json's
// direction and bound. It fails when an output digest differs between
// the sides for the same workload and seed.
func compareMain(arg string) int {
	dirs := strings.Split(arg, ",")
	if len(dirs) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare wants two directories, a,b")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var sides [2]map[string][]*result
	for i, dir := range dirs {
		if sides[i], err = loadRuns(dir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	ok := true
	fmt.Printf("%-12s %-36s %-38s %-38s %8s  %s\n", "workload", "metric", "a: median [q1, q3] n", "b: median [q1, q3] n", "change", "verdict")
	for _, wl := range bf.Workloads {
		a, b := sides[0][wl.Name], sides[1][wl.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, set := range []struct {
			defs  []benchMetric
			trace bool
		}{{bf.EndToEnd, false}, {bf.PerLayer, true}} {
			for _, d := range set.defs {
				av, bv := values(a, d.Name, set.trace), values(b, d.Name, set.trace)
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				change, verdict := classify(av, bv, d.Better, d.Bound)
				fmt.Printf("%-12s %-36s %-38s %-38s %8s  %s\n", wl.Name, d.Name, sideStats(av), sideStats(bv), changeText(av, bv, change), verdict)
			}
		}
		for _, msg := range digestMismatches(a, b) {
			ok = false
			fmt.Printf("%-12s output_digest differs: %s\n", wl.Name, msg)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// loadRuns reads every results.json under dir, grouped by workload.
func loadRuns(dir string) (map[string][]*result, error) {
	out := make(map[string][]*result)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "results.json" {
			return err
		}
		res, err := readResults(path)
		if err != nil {
			return err
		}
		for name, r := range res {
			out[name] = append(out[name], r)
		}
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no results.json under %s", dir)
	}
	return out, err
}

// values collects one metric from the untraced (end-to-end) or traced
// (per-layer) runs.
func values(runs []*result, name string, traced bool) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Trace != traced {
			continue
		}
		if m, ok := r.metrics()[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func sideStats(xs []float64) string {
	q1, q2, q3, ok := quartiles(xs)
	if !ok {
		q1, q2, q3 = xs[0], xs[0], xs[0]
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q2, q1, q3, len(xs))
}

// changeText prints a change of the median as a percentage, or, when
// side a's median is 0 (counts such as workerpool.leases_requeued on a
// clean run), as the move from 0 to side b's median.
func changeText(a, b []float64, change float64) string {
	ma, _ := medianSpread(a)
	if ma == 0 {
		mb, _ := medianSpread(b)
		return fmt.Sprintf("0→%.4g", mb)
	}
	return fmt.Sprintf("%+7.1f%%", 100*change)
}

// classify compares side b to side a. change is the relative change of
// the median, signed so that positive is better; it is infinite when a's
// median is 0 and b's is not. Without a bound (the per-layer metrics) the
// verdict is only informational.
func classify(a, b []float64, better string, bound *float64) (change float64, verdict string) {
	ma, sa := medianSpread(a)
	mb, sb := medianSpread(b)
	switch {
	case mb == ma:
		change = 0
	case ma == 0:
		change = math.Inf(int(math.Copysign(1, mb)))
	default:
		change = (mb - ma) / ma
	}
	if better == "lower" && change != 0 {
		change = -change
	}
	if bound == nil {
		return change, "-"
	}
	beats := func(x, y float64) bool {
		if better == "lower" {
			return x < y
		}
		return x > y
	}
	if max(sa, sb) > *bound {
		switch {
		case all(b, a, beats):
			return change, "improved"
		case all(a, b, beats):
			return change, "regressed"
		}
		return change, "unresolved"
	}
	switch {
	case change < -*bound:
		return change, "regressed"
	case change > *bound:
		return change, "improved"
	}
	return change, "same"
}

// medianSpread returns the median and the quartile distance as a share
// of it: 0 when the quartiles agree, infinite when only the median is 0.
func medianSpread(xs []float64) (median, spread float64) {
	q1, q2, q3, ok := quartiles(xs)
	switch {
	case !ok:
		return xs[0], 0
	case q3 == q1:
		return q2, 0
	case q2 == 0:
		return q2, math.Inf(1)
	}
	return q2, (q3 - q1) / q2
}

// all reports whether every x beats every y.
func all(xs, ys []float64, beats func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !beats(x, y) {
				return false
			}
		}
	}
	return true
}

// digestMismatches lists the seeds whose runs disagree on the output
// digest, within or across the two sides.
func digestMismatches(a, b []*result) []string {
	bySeed := make(map[int64]map[string]bool)
	for _, r := range append(append([]*result(nil), a...), b...) {
		if r.OutputDigest == "" {
			continue
		}
		if bySeed[r.Seed] == nil {
			bySeed[r.Seed] = make(map[string]bool)
		}
		bySeed[r.Seed][r.OutputDigest] = true
	}
	var out []string
	for seed, ds := range bySeed {
		if len(ds) > 1 {
			out = append(out, fmt.Sprintf("seed %d has digests %s", seed, strings.Join(sortedKeys(ds), ", ")))
		}
	}
	sort.Strings(out)
	return out
}
