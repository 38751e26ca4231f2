// Command bench is the repository's end-to-end and per-layer benchmark.
// It drives the system only through its public entry points — the
// scenario DSL, the core sweep and checkpoint functions, the fs and sim
// operations, campaignd over loopback HTTP and the workerpool fleet —
// with closed-loop workloads generated from a seed, checks every output,
// and prints one metric per line followed by a JSON summary.
//
// It is a module of its own (bench/go.mod), built and run from the
// repository root by bench/run.sh, which passes its arguments on:
//
//	bash bench/run.sh                                   # every workload
//	bash bench/run.sh --workload svc-fleet --seed 3     # one workload
//	bash bench/run.sh --workload fig6-up --trace 1      # per-layer metrics, spans
//	bash bench/run.sh --compare bench-out/a,bench-out/b # two sets of runs
//
// See bench/README.md for the workloads, the metrics and how to read
// the spans.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(mainErr(os.Args[1:])) }

func mainErr(args []string) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run (default: every workload, one child process each)")
	seed := fl.Int64("seed", 1, "input seed: the same seed gives the same campaigns")
	seconds := fl.Int("seconds", 15, "length of each workload's timed phase")
	trace := fl.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fl.String("out", "bench-out", "directory for run results, spans and server data")
	compare := fl.String("compare", "", "compare two result directories, given as a,b")
	child := fl.String("child", "", "internal: run directory of a workload child process")
	worker := fl.Bool("worker", false, "internal: serve as a campaignd worker on stdin/stdout")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fl.Args())
		return 2
	}
	switch {
	case *worker:
		return workerMain()
	case *compare != "":
		return compareMain(*compare)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	if *child != "" {
		return childMain(selected[0], *seed, *seconds, *trace == 1, *child)
	}
	return parentMain(selected, *seed, *seconds, *trace == 1, *out)
}

// parentMain runs each workload in a child process of its own, so peak
// memory and GC state do not leak from one workload into the next, and
// prints the results.
func parentMain(selected []*workload, seed int64, seconds int, trace bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	mode := "e2e"
	if trace {
		mode = "trace"
	}
	runName := fmt.Sprintf("%s-%d-s%d-%s", time.Now().UTC().Format("20060102T150405.000"), os.Getpid(), seed, mode)
	runDir := filepath.Join(out, runName)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	results := make(map[string]*result)
	for _, w := range selected {
		res, err := runChild(exe, w, seed, seconds, trace, runDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		results[w.name] = res
		printResult(res)
		if trace {
			printOverhead(out, res)
		}
	}
	if err := writeJSON(filepath.Join(runDir, "results.json"), results); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	summary, ok := summarize(selected, results, trace)
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	return 0
}

// childTimeout bounds a workload child: set-up, the timed phase, the
// gate and the probes take well under the 180 s a run may last.
func childTimeout(seconds int) time.Duration {
	return time.Duration(seconds)*time.Second + 140*time.Second
}

func runChild(exe string, w *workload, seed int64, seconds int, trace bool, runDir string) (*result, error) {
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(seconds))
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", runDir, "-workload", w.name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", traceArg)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res result
	data, err := os.ReadFile(filepath.Join(runDir, w.name+".json"))
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err != nil {
		return nil, fmt.Errorf("reading child result: %w", err)
	}
	return &res, nil
}

func childMain(w *workload, seed int64, seconds int, trace bool, runDir string) int {
	res, err := run(runConfig{
		w:        w,
		seed:     seed,
		duration: time.Duration(seconds) * time.Second,
		trace:    trace,
		dir:      filepath.Join(runDir, w.name),
		sc:       fullScale,
	})
	if err == nil {
		err = writeJSON(filepath.Join(runDir, w.name+".json"), res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult writes each metric as "name value unit", then the
// distributions, digest and checks as comment lines.
func printResult(res *result) {
	fmt.Printf("# workload %s seed %d seconds %g trace %v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	ms := res.metrics()
	for _, name := range sortedKeys(ms) {
		fmt.Printf("%s %.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
	if !res.Trace {
		for _, name := range sortedKeys(res.Loop) {
			fmt.Printf("%s %.6g %s\n", name, res.Loop[name].Value, res.Loop[name].Unit)
		}
	}
	for _, name := range sortedKeys(res.Dists) {
		fmt.Printf("# %s %s\n", name, res.Dists[name])
	}
	for _, n := range res.Notes {
		fmt.Printf("# %s\n", n)
	}
	if len(res.SelfS) > 0 {
		fmt.Println("# self time by span name (span minus the time its child spans cover)")
		names := sortedKeys(res.SelfS)
		sort.SliceStable(names, func(a, b int) bool { return res.SelfS[names[a]] > res.SelfS[names[b]] })
		for _, n := range names {
			fmt.Printf("#   %-28s %9.3f s\n", n, res.SelfS[n])
		}
	}
	fmt.Printf("# output_digest %s\n", res.OutputDigest)
	fmt.Printf("# correct %v attempted %d failed %d\n", res.Correct, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Printf("# error: %s\n", e)
	}
}

// printOverhead sets a traced run's end-to-end numbers beside those of
// the newest untraced run of the same workload under out.
func printOverhead(out string, traced *result) {
	base := latestUntraced(out, traced.Workload)
	fmt.Println("# tracing overhead: metric, traced run, newest untraced run")
	value := func(r *result, name string) float64 {
		if m, ok := r.EndToEnd[name]; ok {
			return m.Value
		}
		return r.Loop[name].Value
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), loopMetrics...) {
		v := value(traced, d.name)
		line := fmt.Sprintf("#   %-16s %12.6g", d.name, v)
		if base != nil {
			b := value(base, d.name)
			line += fmt.Sprintf(" %12.6g (%+.1f%%)", b, 100*(v-b)/b)
		} else {
			line += "  (no untraced run found)"
		}
		fmt.Println(line + " " + d.unit)
	}
}

func latestUntraced(out, workload string) *result {
	paths, _ := filepath.Glob(filepath.Join(out, "*-e2e", "results.json"))
	sort.Strings(paths) // run directories start with their UTC start time
	for i := len(paths) - 1; i >= 0; i-- {
		if res, err := readResults(paths[i]); err == nil && res[workload] != nil {
			return res[workload]
		}
	}
	return nil
}

func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res map[string]*result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueMetric `json:"metrics"`
}

type valueMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize folds the workloads' results into the summary line: the
// end-to-end metrics (per-layer when tracing), prefixed by the workload
// name when more than one ran.
func summarize(selected []*workload, results map[string]*result, trace bool) (summary, bool) {
	s := summary{Correct: true, Metrics: make(map[string]valueMetric)}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	ok := true
	for _, w := range selected {
		res := results[w.name]
		s.Correct = s.Correct && res.Correct
		s.Attempted += res.Attempted
		s.Failed += res.Failed
		ms := res.metrics()
		for _, d := range defs {
			m, found := ms[d.name]
			if !found {
				ok = false
				fmt.Fprintf(os.Stderr, "bench: %s: metric %s missing\n", w.name, d.name)
			}
			key := d.name
			if len(selected) > 1 {
				key = w.name + "." + d.name
			}
			s.Metrics[key] = valueMetric{Value: m.Value, Unit: d.unit}
		}
	}
	return s, ok && s.Correct
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
