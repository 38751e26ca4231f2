package experiments

import (
	"fmt"
	"io"

	"tocttou/internal/core"
	"tocttou/internal/machine"
	"tocttou/internal/model"
	"tocttou/internal/report"
	"tocttou/internal/victim"
)

// Eq1ExactRow is one explored sweep point: the exact schedule-space win
// probability next to its Monte Carlo cross-check and the closed-form
// model prediction.
type Eq1ExactRow struct {
	Label   string
	Machine string
	// Result is the full exploration outcome (exact probability, tree
	// shape, witnesses, MC cross-check).
	Result *core.ExploreResult
	// Model is the closed-form prediction for this point: Equation 1's
	// uniprocessor suspension probability, or the L-over-D success rate
	// on the SMP.
	Model float64
}

// Eq1ExactResult validates Equation 1 with exact probabilities instead of
// sampled rates: the schedule space of each point's discretized round is
// enumerated exhaustively, so the "observed" column carries no sampling
// error at all.
type Eq1ExactResult struct {
	Rows     []Eq1ExactRow
	MCRounds int
}

// Name implements Result.
func (r *Eq1ExactResult) Name() string { return "eq1-exact" }

// Render implements Result.
func (r *Eq1ExactResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Equation 1, exactly — exhaustive schedule-space enumeration\n")
	fmt.Fprintf(w, "Each point explores every schedule of a discretized round (phase slots,\n")
	fmt.Fprintf(w, "dispatch ties, semaphore wake order, bounded stalls); the exact column is\n")
	fmt.Fprintf(w, "a sum of path probabilities, not an estimate. MC re-samples the identical\n")
	fmt.Fprintf(w, "model with %d random-chooser rounds.\n\n", r.MCRounds)
	tbl := &report.Table{Headers: []string{
		"point", "machine", "exact P(win)", "paths", "merged", "MC estimate", "MC 95% CI", "agree", "model",
	}}
	for _, row := range r.Rows {
		res := row.Result
		lo, hi := res.MCInterval()
		tbl.AddRow(
			row.Label,
			row.Machine,
			report.Prob(res.ExactProb()),
			fmt.Sprintf("%d", res.Paths),
			fmt.Sprintf("%d", res.Merged),
			report.Prob(res.MC.Proportion().Rate()),
			report.Interval(lo, hi),
			report.YesNo(res.AgreesWithMC()),
			report.Prob(row.Model),
		)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		res := row.Result
		if res.Win == nil {
			fmt.Fprintf(w, "%s/%s: no winning schedule exists\n", row.Label, row.Machine)
			continue
		}
		p, _ := res.Win.Prob.Float64()
		fmt.Fprintf(w, "%s/%s: minimal winning schedule has %d decision(s) (P=%s)\n",
			row.Label, row.Machine, len(res.Win.Script), report.Prob(p))
	}
	return nil
}

// Eq1Exact explores the fig6 uniprocessor points (default 100KB and 500KB)
// and one SMP point exhaustively, comparing each exact win probability
// against its Monte Carlo cross-check and the closed-form prediction.
func Eq1Exact(opt Options) (Result, error) {
	seed := opt.seed(23003)
	mcRounds := opt.rounds(400)
	sizes := opt.Sizes
	if len(sizes) == 0 {
		sizes = []int{100, 500}
	}
	out := &Eq1ExactResult{MCRounds: mcRounds}

	up := machine.Uniprocessor()
	for i, kb := range sizes {
		sc := ViScenario(up, kb, seed+int64(i), false)
		res, err := core.ExploreCampaign(sc, core.ExploreOptions{MCRounds: mcRounds})
		if err != nil {
			return nil, fmt.Errorf("eq1-exact: uniprocessor %dKB: %w", kb, err)
		}
		window := victim.NewVi().WindowEstimate(up, int64(kb)<<10)
		stall := model.StallProbability(int64(kb)<<10, up.Latency.WriteStallProbPerKB)
		out.Rows = append(out.Rows, Eq1ExactRow{
			Label:   fmt.Sprintf("vi %dKB", kb),
			Machine: up.Name,
			Result:  res,
			Model:   model.UniprocessorSuspension(window, up.Quantum, stall),
		})
	}

	smp := machine.SMP2()
	sc := ViScenario(smp, 100, seed+100, false)
	res, err := core.ExploreCampaign(sc, core.ExploreOptions{MCRounds: mcRounds})
	if err != nil {
		return nil, fmt.Errorf("eq1-exact: smp 100KB: %w", err)
	}
	out.Rows = append(out.Rows, Eq1ExactRow{
		Label:   "vi 100KB",
		Machine: smp.Name,
		Result:  res,
		// The MC cross-check runs traced, so its L/D summaries feed the
		// paper's multiprocessor success model directly.
		Model: model.MultiprocessorSuccess(res.MC.Metrics.LUs, res.MC.Metrics.DUs, seed),
	})
	return out, nil
}
