package tocttou_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation from fresh simulated campaigns, and adds ablation benchmarks
// for the design decisions called out in DESIGN.md plus microbenchmarks of
// the substrates. Each experiment benchmark reports its headline numbers
// as custom metrics (success_pct, L_us, D_us, ...) so bench_output.txt
// doubles as the measured-results record for EXPERIMENTS.md.
//
// Round counts are reduced relative to the paper's 500 to keep a full
// -bench=. run to minutes; the CLI (cmd/tocttou) runs the full counts.

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/experiments"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/scenario"
	"tocttou/internal/sim"
	"tocttou/internal/victim"
)

// benchRounds is the per-campaign round count for experiment benchmarks.
const benchRounds = 150

var renderOnce sync.Map

// renderFirst renders an experiment result to stdout once per benchmark
// name, so the bench log contains the regenerated tables and figures.
func renderFirst(b *testing.B, res experiments.Result) {
	if _, loaded := renderOnce.LoadOrStore(b.Name(), true); loaded {
		return
	}
	fmt.Printf("\n######## %s ########\n", b.Name())
	if err := res.Render(os.Stdout); err != nil {
		b.Fatal(err)
	}
	fmt.Println()
}

func runExperiment(b *testing.B, name string, opt experiments.Options) experiments.Result {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(name, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	renderFirst(b, last)
	return last
}

// --- One benchmark per paper table/figure --------------------------------

// BenchmarkFig6ViUniprocessor regenerates Figure 6: vi attack success rate
// vs file size on the uniprocessor (paper: ~1.5%..18%, noisy).
func BenchmarkFig6ViUniprocessor(b *testing.B) {
	res := runExperiment(b, "fig6", experiments.Options{Rounds: benchRounds})
	fig := res.(*scenario.Outcome)
	first, last := fig.Results[0], fig.Results[len(fig.Results)-1]
	b.ReportMetric(first.Rate()*100, "rate100KB_pct")
	b.ReportMetric(last.Rate()*100, "rate1MB_pct")
}

// BenchmarkViSMPSweep regenerates the §5 headline: ~100% success for every
// size from 20KB to 1MB on the SMP.
func BenchmarkViSMPSweep(b *testing.B) {
	res := runExperiment(b, "vismp", experiments.Options{
		Rounds: 60,
		Sizes:  []int{20, 100, 200, 400, 600, 800, 1000},
	})
	sweep := res.(*experiments.ViSMPResult)
	min := 1.0
	for _, row := range sweep.Rows {
		if r := row.Result.Rate(); r < min {
			min = r
		}
	}
	b.ReportMetric(min*100, "min_rate_pct")
}

// BenchmarkFig7ViSMPLD regenerates Figure 7: L linear in size (~16.5µs/KB),
// D flat ≈41µs.
func BenchmarkFig7ViSMPLD(b *testing.B) {
	res := runExperiment(b, "fig7", experiments.Options{Rounds: 80})
	fig := res.(*experiments.Fig7Result)
	b.ReportMetric(fig.Slope, "L_slope_us_per_KB")
	b.ReportMetric(fig.Rows[len(fig.Rows)-1].Result.Metrics.DUs.Mean(), "D_1MB_us")
}

// BenchmarkTable1ViSMPOneByte regenerates Table 1 (paper: L=61.6±3.78,
// D=41.1±2.73, success ≈96%).
func BenchmarkTable1ViSMPOneByte(b *testing.B) {
	res := runExperiment(b, "table1", experiments.Options{Rounds: 400})
	tbl := res.(*experiments.Table1Result)
	b.ReportMetric(tbl.Campaign.Metrics.LUs.Mean(), "L_us")
	b.ReportMetric(tbl.Campaign.Metrics.DUs.Mean(), "D_us")
	b.ReportMetric(tbl.Campaign.Rate()*100, "rate_pct")
	b.ReportMetric(tbl.PredictedMC*100, "predicted_pct")
}

// BenchmarkTable2GeditSMP regenerates Table 2 (paper: L=11.6, D=32.7,
// predicted ~35%, observed ≈83%).
func BenchmarkTable2GeditSMP(b *testing.B) {
	res := runExperiment(b, "table2", experiments.Options{Rounds: 400})
	tbl := res.(*experiments.Table2Result)
	b.ReportMetric(tbl.Campaign.Metrics.LUs.Mean(), "L_us")
	b.ReportMetric(tbl.Campaign.Metrics.DUs.Mean(), "D_us")
	b.ReportMetric(tbl.Campaign.Rate()*100, "observed_pct")
	b.ReportMetric(tbl.PredictedPoint*100, "predicted_pct")
}

// BenchmarkGeditUniprocessor regenerates §4.2: essentially zero success.
func BenchmarkGeditUniprocessor(b *testing.B) {
	res := runExperiment(b, "geditup", experiments.Options{Rounds: benchRounds})
	b.ReportMetric(res.(*experiments.CampaignSummary).Campaign.Rate()*100, "rate_pct")
}

// BenchmarkFig8GeditMulticoreV1 regenerates Figure 8: a failed naive
// attack timeline with the in-window page-fault trap.
func BenchmarkFig8GeditMulticoreV1(b *testing.B) {
	res := runExperiment(b, "fig8", experiments.Options{})
	tl := res.(*experiments.TimelineResult)
	b.ReportMetric(tl.Round.LD.Dmicros(), "D_us")
}

// BenchmarkGeditMulticoreV1 regenerates §6.2.1: the naive attacker loses
// the 3µs window (paper: almost no success).
func BenchmarkGeditMulticoreV1(b *testing.B) {
	res := runExperiment(b, "geditmc1", experiments.Options{Rounds: benchRounds})
	b.ReportMetric(res.(*experiments.CampaignSummary).Campaign.Rate()*100, "rate_pct")
}

// BenchmarkFig10GeditMulticoreV2 regenerates Figure 10: a successful
// pre-faulted attack timeline.
func BenchmarkFig10GeditMulticoreV2(b *testing.B) {
	res := runExperiment(b, "fig10", experiments.Options{})
	tl := res.(*experiments.TimelineResult)
	b.ReportMetric(tl.Round.LD.Dmicros(), "D_us")
}

// BenchmarkGeditMulticoreV2 regenerates §6.2.2: pre-faulting turns
// near-zero into many successes.
func BenchmarkGeditMulticoreV2(b *testing.B) {
	res := runExperiment(b, "geditmc2", experiments.Options{Rounds: benchRounds})
	b.ReportMetric(res.(*experiments.CampaignSummary).Campaign.Rate()*100, "rate_pct")
}

// BenchmarkFig11Pipelining regenerates Figure 11: the pipelined attacker's
// symlink completes while unlink is still truncating.
func BenchmarkFig11Pipelining(b *testing.B) {
	res := runExperiment(b, "fig11", experiments.Options{})
	fig := res.(*experiments.Fig11Result)
	var seq500, par500 float64
	for _, row := range fig.Rows {
		if row.SizeKB == 500 {
			if row.Parallel {
				par500 = row.AttackDone
			} else {
				seq500 = row.AttackDone
			}
		}
	}
	if par500 > 0 {
		b.ReportMetric(seq500/par500, "speedup_500KB_x")
	}
}

// BenchmarkModelValidation compares Equation 1 / formula (1) predictions
// against simulated campaigns across regimes.
func BenchmarkModelValidation(b *testing.B) {
	res := runExperiment(b, "model", experiments.Options{Rounds: benchRounds})
	b.ReportMetric(res.(*experiments.ModelValidationResult).MeanAbsErr*100, "mean_abs_err_pct")
}

// BenchmarkHeadline regenerates the cross-machine comparison table — the
// paper's central claim in one place.
func BenchmarkHeadline(b *testing.B) {
	res := runExperiment(b, "headline", experiments.Options{Rounds: benchRounds})
	h := res.(*experiments.HeadlineResult)
	for _, row := range h.Rows {
		if row.Scenario == "vi 100KB" && row.Machine == "SMP 2-way" {
			b.ReportMetric(row.Rate*100, "vi_smp_pct")
		}
		if row.Scenario == "gedit v1" && row.Machine == "SMP 2-way" {
			b.ReportMetric(row.Rate*100, "gedit_smp_pct")
		}
	}
}

// BenchmarkDefense regenerates the extension table: EDGI-style guarding
// drives the attacks back to zero.
func BenchmarkDefense(b *testing.B) {
	res := runExperiment(b, "defense", experiments.Options{Rounds: 100})
	d := res.(*experiments.DefenseResult)
	worst := 0.0
	for _, row := range d.Rows {
		if row.Enforced > worst {
			worst = row.Enforced
		}
	}
	b.ReportMetric(worst*100, "worst_guarded_pct")
}

// BenchmarkSendmail regenerates the §1-example extension: the blind
// flip-flop attack on the <lstat, open> mailbox pair across machines.
func BenchmarkSendmail(b *testing.B) {
	res := runExperiment(b, "sendmail", experiments.Options{Rounds: benchRounds})
	sm := res.(*experiments.SendmailResult)
	for _, row := range sm.Rows {
		switch {
		case row.Machine == "uniprocessor-1.7GHz":
			b.ReportMetric(row.Result.Rate()*100, "up_pct")
		case row.Machine == "smp-1.7GHz-2way":
			b.ReportMetric(row.Result.Rate()*100, "smp_pct")
		}
	}
}

// BenchmarkEq1TermStudy regenerates the Equation-1 term dissection:
// suspension on one CPU, scheduling under load, and attacker priority.
func BenchmarkEq1TermStudy(b *testing.B) {
	res := runExperiment(b, "eq1", experiments.Options{Rounds: 120})
	eq := res.(*experiments.Eq1Result)
	if len(eq.Rows) == 4 {
		b.ReportMetric(eq.Rows[1].Observed*100, "smp_noload_pct")
		b.ReportMetric(eq.Rows[2].Observed*100, "smp_loaded_pct")
		b.ReportMetric(eq.Rows[3].Observed*100, "smp_prio_pct")
	}
}

// BenchmarkSessionStudy regenerates the repeated-saves extension: risk
// compounds geometrically over an editing session.
func BenchmarkSessionStudy(b *testing.B) {
	res := runExperiment(b, "session", experiments.Options{Rounds: 120})
	s := res.(*experiments.SessionResult)
	b.ReportMetric(s.PerSave*100, "per_save_pct")
	b.ReportMetric(s.Rows[len(s.Rows)-1].Observed*100, "twenty_saves_pct")
}

// BenchmarkGapSweep regenerates the window-width sensitivity curve that
// interpolates between the paper's two machines.
func BenchmarkGapSweep(b *testing.B) {
	res := runExperiment(b, "gapsweep", experiments.Options{Rounds: 120})
	g := res.(*experiments.GapSweepResult)
	for _, row := range g.Rows {
		if row.GapMicros == 3 {
			b.ReportMetric(row.Observed*100, "gap3us_pct")
		}
	}
}

// BenchmarkPatchedVictims regenerates the application-fix extension:
// fd-based fchown/fchmod removes the TOCTTOU pair entirely.
func BenchmarkPatchedVictims(b *testing.B) {
	res := runExperiment(b, "patched", experiments.Options{Rounds: 120})
	p := res.(*experiments.PatchedResult)
	worst := 0.0
	for _, row := range p.Rows {
		if row.Patched > worst {
			worst = row.Patched
		}
	}
	b.ReportMetric(worst*100, "worst_patched_pct")
}

// --- Ablations of DESIGN.md decisions ------------------------------------

// BenchmarkAblationNoiseOff removes background kernel activity: the vi
// 1-byte SMP attack, ~96% with noise (Table 1), becomes deterministic
// certainty — noise is what keeps success statistical (§5's failed runs).
func BenchmarkAblationNoiseOff(b *testing.B) {
	quiet := machine.SMP2()
	quiet.Noise = sim.NoiseConfig{}
	quiet.Jitter = 0
	noisy := machine.SMP2()
	var rateQuiet, rateNoisy float64
	for i := 0; i < b.N; i++ {
		q := mustCampaign(b, viScenario(quiet, 1, 900+int64(i)), benchRounds)
		n := mustCampaign(b, viScenario(noisy, 1, 900+int64(i)), benchRounds)
		rateQuiet, rateNoisy = q.Rate(), n.Rate()
	}
	b.ReportMetric(rateQuiet*100, "quiet_pct")
	b.ReportMetric(rateNoisy*100, "noisy_pct")
	printOnce(b, "noise off: %.1f%% vs noisy: %.1f%% (Table 1 says ~96%%, not 100%%)\n",
		rateQuiet*100, rateNoisy*100)
}

// BenchmarkAblationOnePhaseUnlink merges unlink's truncation into its
// detach phase (directory lock held throughout): the §7 pipelining win
// disappears because the symlink can no longer overlap the truncation.
func BenchmarkAblationOnePhaseUnlink(b *testing.B) {
	onePhase := machine.MultiCore()
	// Fold the per-KB truncation cost into the detach phase.
	onePhase.Latency.UnlinkDetach += onePhase.Latency.TruncBase +
		time.Duration(float64(onePhase.Latency.TruncPerKB)*500)
	onePhase.Latency.TruncBase = 0
	onePhase.Latency.TruncPerKB = 0

	var overlap, noOverlap float64
	for i := 0; i < b.N; i++ {
		overlap = pipelineGain(b, machine.MultiCore(), 950+int64(i))
		noOverlap = pipelineGain(b, onePhase, 970+int64(i))
	}
	b.ReportMetric(overlap, "two_phase_speedup_x")
	b.ReportMetric(noOverlap, "one_phase_speedup_x")
	printOnce(b, "pipelining speedup at 500KB: two-phase unlink %.1fx vs one-phase %.1fx\n",
		overlap, noOverlap)
}

// BenchmarkAblationUnsynchronizedLookups removes lookup blocking behind
// rename's dentry swap: the attacker loses the detection synchronization
// and the gedit SMP rate collapses far below the paper's 83%.
func BenchmarkAblationUnsynchronizedLookups(b *testing.B) {
	var synced, unsynced float64
	for i := 0; i < b.N; i++ {
		sc := geditScenario(machine.SMP2(), 980+int64(i))
		s := mustCampaign(b, sc, benchRounds)
		sc.UnsynchronizedLookups = true
		u := mustCampaign(b, sc, benchRounds)
		synced, unsynced = s.Rate(), u.Rate()
	}
	b.ReportMetric(synced*100, "synced_pct")
	b.ReportMetric(unsynced*100, "unsynced_pct")
	printOnce(b, "gedit SMP: synced lookups %.1f%% vs unsynchronized %.1f%%\n",
		synced*100, unsynced*100)
}

// --- Substrate microbenchmarks -------------------------------------------

// BenchmarkKernelEventThroughput measures raw simulator event processing.
func BenchmarkKernelEventThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.New(sim.Config{CPUs: 2, Quantum: time.Second, Seed: int64(i)})
		p := k.NewProcess("p", 0, 0)
		for t := 0; t < 2; t++ {
			k.Spawn(p, "w", func(task *sim.Task) {
				for j := 0; j < 5000; j++ {
					task.Compute(time.Microsecond)
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFSStat measures the cost of a simulated stat syscall.
func BenchmarkFSStat(b *testing.B) {
	b.ReportAllocs()
	k := sim.New(sim.Config{CPUs: 1, Quantum: time.Hour, Seed: 1, MaxTime: time.Hour, MaxSteps: 1 << 40})
	f := fs.New(fs.Config{Latency: fs.DefaultProfile()})
	f.MustMkdirAll("/home/alice", 0o755, 1000, 1000)
	f.MustWriteFile("/home/alice/doc", 4096, 0o644, 1000, 1000)
	p := k.NewProcess("p", 0, 0)
	k.Spawn(p, "stats", func(task *sim.Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Stat(task, "/home/alice/doc"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkViRoundSMP measures one full vi attack round.
func BenchmarkViRoundSMP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := viScenario(machine.SMP2(), 100<<10, int64(i+1))
		if _, err := core.RunRound(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeditRoundMulticore measures one full gedit attack round.
func BenchmarkGeditRoundMulticore(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := geditScenario(machine.MultiCore(), int64(i+1))
		if _, err := core.RunRound(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracedRoundOverhead measures the cost of full event tracing.
func BenchmarkTracedRoundOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := viScenario(machine.SMP2(), 100<<10, int64(i+1))
		sc.Trace = true
		if _, err := core.RunRound(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers --------------------------------------------------------------

func viScenario(m machine.Profile, size int64, seed int64) core.Scenario {
	return core.Scenario{
		Machine: m, Victim: victim.NewVi(), Attacker: attack.NewV1(),
		UseSyscall: "chown", FileSize: size, Seed: seed,
	}
}

func geditScenario(m machine.Profile, seed int64) core.Scenario {
	return core.Scenario{
		Machine: m, Victim: victim.NewGedit(), Attacker: attack.NewV1(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: seed,
	}
}

func mustCampaign(b *testing.B, sc core.Scenario, rounds int) core.CampaignResult {
	b.Helper()
	res, err := core.RunCampaign(sc, rounds)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// pipelineGain measures the sequential/pipelined completion ratio for a
// 500KB gedit attack on machine m.
func pipelineGain(b *testing.B, m machine.Profile, seed int64) float64 {
	b.Helper()
	seq := attackDone(b, m, attack.NewV2(), seed)
	par := attackDone(b, m, attack.NewPipelined(), seed)
	if par == 0 {
		return 0
	}
	return seq / par
}

// attackDone returns the µs from detection to completed redirection.
func attackDone(b *testing.B, m machine.Profile, att prog.Program, seed int64) float64 {
	b.Helper()
	sc := core.Scenario{
		Machine: m, Victim: victim.NewGedit(), Attacker: att,
		UseSyscall: "chmod", FileSize: 500 << 10, Seed: seed, Trace: true,
	}
	target := core.DefaultPaths().Target
	for i := 0; i < 256; i++ {
		r, err := core.RunRound(sc)
		if err != nil {
			b.Fatal(err)
		}
		if r.LD.Detected {
			var enter sim.Time
			var have bool
			for _, e := range r.Events {
				if e.PID != r.AttackerPID || e.Label != "symlink" || e.Path != target {
					continue
				}
				if e.Kind == sim.EvSyscallEnter {
					enter, have = e.T, true
				}
				if e.Kind == sim.EvSyscallExit && have && e.Arg == 0 {
					return e.T.Sub(r.LD.StatEnter).Seconds() * 1e6
				}
			}
			_ = enter
		}
		sc.Seed += 7919
	}
	b.Fatal("no detected round with completed symlink")
	return 0
}

var printedOnce sync.Map

func printOnce(b *testing.B, format string, args ...any) {
	if _, loaded := printedOnce.LoadOrStore(b.Name(), true); loaded {
		return
	}
	fmt.Printf("  ablation %s: ", b.Name())
	fmt.Printf(format, args...)
}
