// Command tocttou runs the paper's experiments on the simulated testbeds.
//
// Usage:
//
//	tocttou -list
//	tocttou -experiment fig6 [-rounds N] [-seed S] [-sizes 100,500,1000] [-metrics]
//	tocttou -experiment all [-rounds 50]
//	tocttou -experiment fig6,headline,eq1-exact,faultsweep,defense -golden testdata/golden
//	tocttou -experiment faultsweep [-fault-rates 0,0.01,0.2] [-fault-seed 9973]
//	tocttou -experiment headline -checkpoint headline.ckpt   (crash-safe; rerun resumes)
//	tocttou -scenario examples/scenarios/fig6.yaml [-golden dir] [-checkpoint file.ckpt]
//	tocttou -explore [-sizes 100,500] [-explore-phases 24] [-preemption-bound 1] [-witness-out prefix]
//	tocttou -trace-out trace.jsonl [-trace-scenario vi-smp] [-trace-kinds enter,exit] [-trace-pid 2] [-trace-path /tmp/x]
//
// Each experiment renders the corresponding table or figure of
// "Multiprocessors May Reduce System Dependability under File-Based Race
// Condition Attacks" (DSN 2007) from freshly simulated campaigns.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/experiments"
	"tocttou/internal/machine"
	"tocttou/internal/scenario"
	"tocttou/internal/sim"
	"tocttou/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "tocttou: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("tocttou", flag.ContinueOnError)
	list := fl.Bool("list", false, "list available experiments")
	name := fl.String("experiment", "", "experiment to run (or 'all')")
	rounds := fl.Int("rounds", 0, "rounds per campaign (0 = experiment default)")
	seed := fl.Int64("seed", 0, "base seed (0 = fixed default)")
	sizesArg := fl.String("sizes", "", "comma-separated file sizes in KB, where applicable")
	showMetrics := fl.Bool("metrics", false, "append kernel counters and window/D/L histograms to supporting experiments")
	traceOut := fl.String("trace-out", "", "run one traced round and write its events as JSONL to this file")
	traceScen := fl.String("trace-scenario", "vi-smp", "scenario for -trace-out: vi-uni, vi-smp, gedit-v1, gedit-v2")
	traceKinds := fl.String("trace-kinds", "", "comma-separated event kinds to keep in -trace-out (default all)")
	tracePID := fl.Int("trace-pid", 0, "restrict -trace-out to one pid (0 = all)")
	tracePath := fl.String("trace-path", "", "restrict -trace-out to events on this exact path")
	explore := fl.Bool("explore", false, "exhaustively enumerate the schedule space of fig6 uniprocessor points (-sizes) and report exact win probabilities")
	explorePhases := fl.Int("explore-phases", 0, "startup-phase slots for -explore (0 = engine default)")
	preemptionBound := fl.Int("preemption-bound", 0, "max injected background preemptions per explored round (0 = none)")
	witnessOut := fl.String("witness-out", "", "path prefix for -explore witness traces (<prefix>-<point>-win.jsonl / -lose.jsonl)")
	scenarioPath := fl.String("scenario", "", "run a declarative scenario file (YAML or JSON); exits non-zero on a malformed spec or a failed assertion")
	goldenDir := fl.String("golden", "", "write each -experiment rendering to <dir>/<name>.txt instead of stdout")
	checkpoint := fl.String("checkpoint", "", "crash-safe sweep checkpoint file for a single checkpointable -experiment; rerun with the same flags to resume")
	faultRates := fl.String("fault-rates", "", "comma-separated fault injection rates in [0,1] for the faultsweep experiment")
	faultSeed := fl.Int64("fault-seed", 0, "fault-plan seed for the faultsweep experiment (0 = fixed default)")
	cpuProfile := fl.String("cpuprofile", "", "write a CPU profile of the selected run to this file")
	memProfile := fl.String("memprofile", "", "write an end-of-run heap profile to this file")
	serverURL := fl.String("server", "", "campaignd base URL for the client verbs (-submit, -watch, -jobs)")
	submitPath := fl.String("submit", "", "submit a scenario file to -server and print the job (id first)")
	watchID := fl.String("watch", "", "follow a campaign on -server: progress streams to stderr, the completed report to stdout")
	jobsList := fl.Bool("jobs", false, "list the campaigns -server knows, in submission order")
	if err := fl.Parse(args); err != nil {
		return err
	}

	// Reject contradictory or out-of-range settings up front instead of
	// silently running with them.
	setFlags := make(map[string]bool)
	fl.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	for _, f := range []string{"explore-phases", "preemption-bound", "witness-out"} {
		if setFlags[f] && !*explore {
			return fmt.Errorf("-%s only applies with -explore", f)
		}
	}
	if *rounds < 0 {
		return fmt.Errorf("-rounds must be >= 0 (0 = experiment default)")
	}
	if *tracePID < 0 || *tracePID > math.MaxInt32 {
		return fmt.Errorf("-trace-pid must be in [0, %d]", math.MaxInt32)
	}
	if *explorePhases < 0 {
		return fmt.Errorf("-explore-phases must be >= 0, got %d", *explorePhases)
	}
	if *preemptionBound < 0 {
		return fmt.Errorf("-preemption-bound must be >= 0, got %d", *preemptionBound)
	}
	if *goldenDir != "" && *name == "" && *scenarioPath == "" {
		return fmt.Errorf("-golden requires -experiment or -scenario (the runs to snapshot)")
	}
	// A scenario file carries its whole configuration, so every knob that
	// would override part of it is a contradiction, rejected at parse time.
	if *scenarioPath != "" {
		for _, conflicting := range []string{
			"experiment", "rounds", "seed", "sizes", "metrics",
			"fault-rates", "fault-seed",
			"list", "explore", "trace-out",
		} {
			if setFlags[conflicting] {
				return fmt.Errorf("-%s does not apply to -scenario runs (the scenario file carries the configuration)", conflicting)
			}
		}
	}
	// The client verbs talk to a campaignd server; every local-run flag is
	// a contradiction (the server owns the execution), rejected up front.
	clientVerbs := 0
	for _, set := range []bool{*submitPath != "", *watchID != "", *jobsList} {
		if set {
			clientVerbs++
		}
	}
	if clientVerbs > 0 || *serverURL != "" {
		if *serverURL == "" {
			return fmt.Errorf("-submit, -watch, and -jobs require -server <url>")
		}
		if clientVerbs == 0 {
			return fmt.Errorf("-server requires one of -submit, -watch, -jobs")
		}
		if clientVerbs > 1 {
			return fmt.Errorf("-submit, -watch, and -jobs are mutually exclusive (one verb per invocation)")
		}
		for name := range setFlags {
			switch name {
			case "server", "submit", "watch", "jobs":
			default:
				return fmt.Errorf("-%s does not apply to client-verb runs (the server owns the execution)", name)
			}
		}
		return clientRun(*serverURL, *submitPath, *watchID, *jobsList)
	}

	// The fault/checkpoint flags bind to specific experiment selections;
	// reject mismatches at parse time like the flags above.
	names := splitNames(*name)
	if *checkpoint != "" && *scenarioPath == "" {
		if *traceOut != "" || *explore {
			return fmt.Errorf("-checkpoint only applies to -experiment and -scenario runs")
		}
		if len(names) != 1 || names[0] == "all" {
			return fmt.Errorf("-checkpoint requires exactly one -experiment name (each sweep maps to one checkpoint file)")
		}
		if !experiments.SupportsCheckpoint(names[0]) {
			return fmt.Errorf("-checkpoint is not supported by experiment %q (its result does not derive purely from sweep points)", names[0])
		}
	}
	if (setFlags["fault-rates"] || setFlags["fault-seed"]) && !containsName(names, "faultsweep") {
		return fmt.Errorf("-fault-rates and -fault-seed only apply to the faultsweep experiment")
	}
	var parsedRates []float64
	if setFlags["fault-rates"] {
		for _, s := range strings.Split(*faultRates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad fault rate %q", s)
			}
			if r < 0 || r > 1 {
				return fmt.Errorf("-fault-rates entries must be in [0, 1], got %v", r)
			}
			parsedRates = append(parsedRates, r)
		}
		if len(parsedRates) == 0 {
			return fmt.Errorf("-fault-rates needs at least one rate")
		}
	}

	var sizes []int
	if *sizesArg != "" {
		for _, s := range strings.Split(*sizesArg, ",") {
			kb, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || kb <= 0 {
				return fmt.Errorf("bad size %q", s)
			}
			if kb > scenario.MaxSizeKB {
				return fmt.Errorf("-sizes: %d KB overflows a byte count (max %d KB)", kb, int64(scenario.MaxSizeKB))
			}
			sizes = append(sizes, kb)
		}
	}

	// Profiling wraps whichever mode runs below. Both files are created at
	// parse time so an unwritable path fails the invocation up front (non-
	// zero exit) instead of after a long profiled run.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tocttou: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *traceOut != "" {
		return traceExport(*traceOut, *traceScen, *seed, *traceKinds, *tracePID, *tracePath)
	}
	if *explore {
		return exploreRun(sizes, *seed, *explorePhases, *preemptionBound, *rounds, *witnessOut)
	}
	if *goldenDir != "" {
		if err := os.MkdirAll(*goldenDir, 0o755); err != nil {
			return err
		}
	}
	if *scenarioPath != "" {
		return scenarioRun(*scenarioPath, *goldenDir, *checkpoint)
	}

	if *list || *name == "" {
		fmt.Println("available experiments:")
		for _, n := range experiments.Names() {
			desc, _ := experiments.Describe(n)
			fmt.Printf("  %-9s %s\n", n, desc)
		}
		if *name == "" && !*list {
			return fmt.Errorf("no experiment selected (use -experiment <name> or -experiment all)")
		}
		return nil
	}

	opt := experiments.Options{Rounds: *rounds, Seed: *seed, Metrics: *showMetrics}
	opt.Sizes = sizes
	opt.Checkpoint = *checkpoint
	opt.FaultRates = parsedRates
	opt.FaultSeed = *faultSeed

	if len(names) == 1 && names[0] == "all" {
		names = experiments.Names()
	}
	for _, n := range names {
		started := time.Now()
		res, err := experiments.Run(n, opt)
		if err != nil {
			return err
		}
		if err := emit(*goldenDir, n, n, started, res); err != nil {
			return err
		}
	}
	return nil
}

// emit writes one rendering: to <goldenDir>/<name>.txt when goldenDir is
// set, else to stdout under a "==== title (wall time) ====" frame.
// Golden snapshots carry the rendering only — no wall-time header, so
// reruns diff clean.
func emit(goldenDir, name, title string, started time.Time, res experiments.Result) error {
	if goldenDir == "" {
		fmt.Printf("==== %s (%.1fs) ====\n", title, time.Since(started).Seconds())
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}
	path := goldenDir + "/" + name + ".txt"
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Render(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// splitNames splits the -experiment list, trimming whitespace. An empty
// selection yields nil.
func splitNames(arg string) []string {
	if arg == "" {
		return nil
	}
	names := strings.Split(arg, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
	}
	return names
}

func containsName(names []string, want string) bool {
	for _, n := range names {
		if n == want || n == "all" {
			return true
		}
	}
	return false
}

// exploreRun exhaustively enumerates the schedule space of fig6-style
// uniprocessor vi points and prints each point's exact win probability
// next to its Monte Carlo cross-check. With a witness prefix it also
// exports the minimal winning and losing schedules as replayable JSONL
// traces.
func exploreRun(sizes []int, seed int64, phases, preemptionBound, mcRounds int, witnessPrefix string) error {
	if len(sizes) == 0 {
		sizes = []int{100, 500}
	}
	if seed == 0 {
		seed = 23003
	}
	opt := core.ExploreOptions{
		PhaseSlots:      phases,
		PreemptionBound: preemptionBound,
		MCRounds:        mcRounds,
	}
	m := machine.Uniprocessor()
	for i, kb := range sizes {
		sc := experiments.ViScenario(m, kb, seed+int64(i), false)
		started := time.Now()
		res, err := core.ExploreCampaign(sc, opt)
		if err != nil {
			return fmt.Errorf("explore vi %dKB: %w", kb, err)
		}
		label := fmt.Sprintf("vi-%dkb-up", kb)
		fmt.Printf("%s: exact P(win) = %.6f — %d paths, %d choice points, %d merged, depth %d (%.1fs)\n",
			label, res.ExactProb(),
			res.Paths, res.ChoicePoints, res.Merged, res.MaxDepth,
			time.Since(started).Seconds())
		if res.MCRounds > 0 {
			lo, hi := res.MCInterval()
			verdict := "agrees"
			if !res.AgreesWithMC() {
				verdict = "DISAGREES"
			}
			fmt.Printf("%s: MC cross-check %.6f over %d rounds, 95%% CI [%.4f, %.4f] — %s\n",
				label, res.MC.Proportion().Rate(), res.MCRounds, lo, hi, verdict)
		}
		for _, w := range []struct {
			kind    string
			witness *core.ScheduleWitness
		}{{"win", res.Win}, {"lose", res.Lose}} {
			if w.witness == nil {
				fmt.Printf("%s: no %sning schedule exists\n", label, w.kind)
				continue
			}
			p, _ := w.witness.Prob.Float64()
			fmt.Printf("%s: minimal %s schedule: %d decision(s), P=%.6f\n",
				label, w.kind, len(w.witness.Script), p)
			if witnessPrefix == "" {
				continue
			}
			path := fmt.Sprintf("%s-%s-%s.jsonl", witnessPrefix, label, w.kind)
			if err := writeWitness(path, w.witness); err != nil {
				return err
			}
			fmt.Printf("%s: wrote %s (%d events)\n", label, path, len(w.witness.Round.Events))
		}
	}
	return nil
}

// writeWitness exports a witness round's traced events as JSONL. The
// embedded EvChoice records carry the schedule, so the file replays via
// trace.ReadJSONL + core.ScheduleFromEvents + core.ReplaySchedule.
func writeWitness(path string, w *core.ScheduleWitness) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	jw := trace.NewJSONLWriter(f, trace.Filter{})
	for _, e := range w.Round.Events {
		jw.Emit(e)
	}
	if err := jw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// scenarioRun executes a declarative scenario file end-to-end: parse-time
// validation (a malformed spec exits non-zero before any round runs), the
// sweep itself — through the crash-safe checkpoint runner when -checkpoint
// is set — rendering to stdout or a -golden snapshot, and finally the
// spec's assertions, whose first failure is the process's error.
func scenarioRun(path, goldenDir, checkpoint string) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	started := time.Now()
	out, err := scenario.Run(spec, scenario.RunOptions{Checkpoint: checkpoint})
	if err != nil {
		return err
	}
	if err := emit(goldenDir, spec.Name, "scenario "+spec.Name, started, out); err != nil {
		return err
	}
	return out.CheckAssertions()
}

// traceScenario builds the traced round a -trace-out export runs: the
// experiment drivers' standard vi and gedit scenarios.
func traceScenario(name string, seed int64) (core.Scenario, error) {
	if seed == 0 {
		seed = 9001
	}
	switch name {
	case "vi-uni":
		return experiments.ViScenario(machine.Uniprocessor(), 100, seed, true), nil
	case "vi-smp":
		return experiments.ViScenario(machine.SMP2(), 100, seed, true), nil
	case "gedit-v1":
		return experiments.GeditScenario(machine.SMP2(), attack.NewV1(), seed, true), nil
	case "gedit-v2":
		return experiments.GeditScenario(machine.MultiCore(), attack.NewV2(), seed, true), nil
	default:
		return core.Scenario{}, fmt.Errorf("unknown -trace-scenario %q (have vi-uni, vi-smp, gedit-v1, gedit-v2)", name)
	}
}

// traceExport runs one traced round and streams its events as JSONL,
// optionally filtered by kind, pid, and path.
func traceExport(out, scenario string, seed int64, kindsArg string, pid int, path string) error {
	sc, err := traceScenario(scenario, seed)
	if err != nil {
		return err
	}
	filter := trace.Filter{PID: int32(pid), Path: path}
	if kindsArg != "" {
		for _, name := range strings.Split(kindsArg, ",") {
			name = strings.TrimSpace(name)
			kind, ok := sim.ParseEventKind(name)
			if !ok {
				return fmt.Errorf("unknown event kind %q in -trace-kinds (use the names traces print: enter, exit, sem-block, dispatch, name-bind, ...)", name)
			}
			filter.Kinds = append(filter.Kinds, kind)
		}
	}
	round, err := core.RunRound(sc)
	if err != nil {
		return fmt.Errorf("trace round: %w", err)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	jw := trace.NewJSONLWriter(f, filter)
	for _, e := range round.Events {
		jw.Emit(e)
	}
	if err := jw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", out, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%s: wrote %d of %d events (%s, seed %d, success %v)\n",
		out, jw.Count(), len(round.Events), scenario, sc.Seed, round.Success)
	return nil
}
