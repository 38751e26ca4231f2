package experiments

import (
	"fmt"
	"io"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/defense"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/metrics"
	"tocttou/internal/report"
)

// HeadlineRow compares one attack scenario across machines.
type HeadlineRow struct {
	Scenario string
	Machine  string
	Rate     float64
	Rounds   int
	PaperRef string
	// Result is the full campaign outcome behind Rate.
	Result core.CampaignResult
}

// HeadlineResult is the paper's main claim in one table: the same attacks
// move from negligible success on a uniprocessor to near-certainty on
// multiprocessors.
type HeadlineResult struct {
	Rows []HeadlineRow
	// ShowMetrics appends the kernel-metrics section to the rendering.
	ShowMetrics bool
}

// Name implements Result.
func (r *HeadlineResult) Name() string { return "headline" }

// Render implements Result.
func (r *HeadlineResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Headline — multiprocessors may reduce system dependability\n")
	fmt.Fprintf(w, "The same TOCTTOU attacks, same victims, same attacker programs:\n\n")
	tbl := &report.Table{Headers: []string{"attack", "machine", "success rate", "paper reports"}}
	for _, row := range r.Rows {
		tbl.AddRow(row.Scenario, row.Machine, fmt.Sprintf("%.1f%%", row.Rate*100), row.PaperRef)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	if !r.ShowMetrics {
		return nil
	}
	labels := make([]string, len(r.Rows))
	pts := make([]metrics.Point, len(r.Rows))
	for i, row := range r.Rows {
		labels[i] = row.Scenario + " / " + row.Machine
		pts[i] = row.Result.Metrics
	}
	return report.MetricsSection(w, labels, pts)
}

// Headline runs the cross-machine comparison.
func Headline(opt Options) (Result, error) {
	rounds := opt.rounds(400)
	seed := opt.seed(13001)
	out := &HeadlineResult{ShowMetrics: opt.Metrics}

	steps := []struct {
		scenario, machineName, ref string
		sc                         core.Scenario
	}{
		{"vi 100KB", "uniprocessor", "~2%", ViScenario(machine.Uniprocessor(), 100, seed+1, false)},
		{"vi 100KB", "SMP 2-way", "100%", ViScenario(machine.SMP2(), 100, seed+2, false)},
		{"vi 1 byte", "SMP 2-way", "~96%", func() core.Scenario {
			sc := ViScenario(machine.SMP2(), 0, seed+3, false)
			sc.FileSize = 1
			return sc
		}()},
		{"gedit v1", "uniprocessor", "~0%", GeditScenario(machine.Uniprocessor(), attack.NewV1(), seed+4, false)},
		{"gedit v1", "SMP 2-way", "~83%", GeditScenario(machine.SMP2(), attack.NewV1(), seed+5, false)},
		{"gedit v1", "multi-core 4-way", "~0%", GeditScenario(machine.MultiCore(), attack.NewV1(), seed+6, false)},
		{"gedit v2", "multi-core 4-way", "many successes", GeditScenario(machine.MultiCore(), attack.NewV2(), seed+7, false)},
	}
	scs := make([]core.Scenario, len(steps))
	for i, s := range steps {
		scs[i] = s.sc
		if opt.Metrics {
			// Trace so the window/D/L histograms populate; tracing is a
			// pure observer and leaves the success rates unchanged.
			scs[i].Trace = true
		}
	}
	results, err := opt.runSweep(scs, rounds)
	if err != nil {
		return nil, fmt.Errorf("headline: %w", err)
	}
	for i, s := range steps {
		out.Rows = append(out.Rows, HeadlineRow{
			Scenario: s.scenario, Machine: s.machineName,
			Rate: results[i].Rate(), Rounds: rounds, PaperRef: s.ref,
			Result: results[i],
		})
	}
	return out, nil
}

// DefenseRow compares a scenario undefended, with the denying guard, and
// with the delaying (pseudo-transaction) guard.
type DefenseRow struct {
	Scenario   string
	Baseline   float64
	Enforced   float64
	Delayed    float64
	Violations int
	Rounds     int
}

// DefenseResult evaluates the §8-inspired defense extension.
type DefenseResult struct {
	Rows []DefenseRow
	// BenignBaseUs and BenignGuardedUs compare the victim's save latency
	// (virtual µs) without an attacker, guard off vs on — the defense's
	// overhead on innocent workloads.
	BenignBaseUs    float64
	BenignGuardedUs float64
}

// OverheadPct returns the benign-workload slowdown in percent.
func (r *DefenseResult) OverheadPct() float64 {
	if r.BenignBaseUs == 0 {
		return 0
	}
	return (r.BenignGuardedUs - r.BenignBaseUs) / r.BenignBaseUs * 100
}

// Name implements Result.
func (r *DefenseResult) Name() string { return "defense" }

// Render implements Result.
func (r *DefenseResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Defense extension — EDGI-style invariant guarding (paper §8 related work)\n")
	fmt.Fprintf(w, "The guard tracks invariants established by privileged check calls and denies\n")
	fmt.Fprintf(w, "other users' namespace modifications inside the window.\n\n")
	tbl := &report.Table{Headers: []string{"scenario", "undefended", "EDGI enforce", "EDGI delay", "violations denied"}}
	for _, row := range r.Rows {
		tbl.AddRow(row.Scenario,
			fmt.Sprintf("%.1f%%", row.Baseline*100),
			fmt.Sprintf("%.1f%%", row.Enforced*100),
			fmt.Sprintf("%.1f%%", row.Delayed*100),
			fmt.Sprintf("%d (in %d rounds)", row.Violations, row.Rounds))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nbenign-workload cost (vi save, no attacker): %.1fµs -> %.1fµs (%+.2f%%)\n",
		r.BenignBaseUs, r.BenignGuardedUs, r.OverheadPct())
	return nil
}

// DefenseEvaluation measures attack success with the guard enforcing.
func DefenseEvaluation(opt Options) (Result, error) {
	rounds := opt.rounds(300)
	seed := opt.seed(14009)
	out := &DefenseResult{}

	cases := []struct {
		name string
		sc   core.Scenario
	}{
		{"vi 100KB / SMP", ViScenario(machine.SMP2(), 100, seed+1, false)},
		{"gedit v1 / SMP", GeditScenario(machine.SMP2(), attack.NewV1(), seed+2, false)},
		{"gedit v2 / multi-core", GeditScenario(machine.MultiCore(), attack.NewV2(), seed+3, false)},
	}
	// Three sweep points per case: undefended, enforcing, delaying.
	scs := make([]core.Scenario, 0, 3*len(cases))
	for _, c := range cases {
		guarded := c.sc
		guarded.NewGuard = func() fs.Guard { return defense.New(defense.Enforce) }
		delayed := c.sc
		delayed.NewGuard = func() fs.Guard { return defense.New(defense.Delay) }
		scs = append(scs, c.sc, guarded, delayed)
	}
	results, err := opt.runSweep(scs, rounds)
	if err != nil {
		return nil, fmt.Errorf("defense: %w", err)
	}
	for i, c := range cases {
		base, gres, dres := results[3*i], results[3*i+1], results[3*i+2]
		out.Rows = append(out.Rows, DefenseRow{
			Scenario: c.name,
			Baseline: base.Rate(),
			Enforced: gres.Rate(),
			Delayed:  dres.Rate(),
			// Denied attempts surface as attacker step errors.
			Violations: gres.AttackErrors,
			Rounds:     rounds,
		})
	}

	// Benign overhead: the same save with no attacker, guard off vs on.
	benign := ViScenario(machine.SMP2(), 100, seed+99, false)
	benign.Attacker = attack.Idle{}
	baseUs, err := meanRoundEnd(benign, 50)
	if err != nil {
		return nil, err
	}
	benignGuarded := benign
	benignGuarded.NewGuard = func() fs.Guard { return defense.New(defense.Enforce) }
	guardedUs, err := meanRoundEnd(benignGuarded, 50)
	if err != nil {
		return nil, err
	}
	out.BenignBaseUs = baseUs
	out.BenignGuardedUs = guardedUs
	return out, nil
}

// meanRoundEnd averages the virtual completion time of rounds, in µs.
func meanRoundEnd(sc core.Scenario, rounds int) (float64, error) {
	total := 0.0
	for i := 0; i < rounds; i++ {
		rsc := sc
		rsc.Seed = sc.Seed + int64(i+1)*1009
		r, err := core.RunRound(rsc)
		if err != nil {
			return 0, err
		}
		total += r.End.Micros()
	}
	return total / float64(rounds), nil
}
