package experiments

import (
	"fmt"
	"io"
	"math"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/machine"
	"tocttou/internal/model"
	"tocttou/internal/report"
	"tocttou/internal/victim"
)

// ModelPoint compares one scenario's predicted and observed rates.
type ModelPoint struct {
	Scenario  string
	Predicted float64
	Observed  float64
	Note      string
}

// ModelValidationResult validates Equation 1 and formula (1) against the
// simulation across the paper's regimes.
type ModelValidationResult struct {
	Points []ModelPoint
	// MeanAbsErr is the mean |predicted - observed| over the points that
	// claim quantitative accuracy (the conservative gedit estimate is
	// excluded, as the paper itself flags it).
	MeanAbsErr float64
}

// Name implements Result.
func (r *ModelValidationResult) Name() string { return "model" }

// Render implements Result.
func (r *ModelValidationResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Model validation — Equation 1 and formula (1) vs simulated campaigns\n\n")
	tbl := &report.Table{Headers: []string{"scenario", "predicted", "observed", "note"}}
	for _, p := range r.Points {
		tbl.AddRow(p.Scenario,
			fmt.Sprintf("%.1f%%", p.Predicted*100),
			fmt.Sprintf("%.1f%%", p.Observed*100),
			p.Note)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmean |error| over quantitative points: %.1f%%\n", r.MeanAbsErr*100)
	return nil
}

// ModelValidation runs the validation sweep.
func ModelValidation(opt Options) (Result, error) {
	rounds := opt.rounds(300)
	seed := opt.seed(12011)
	var out ModelValidationResult
	var errSum float64
	var errN int

	quant := func(p ModelPoint) {
		out.Points = append(out.Points, p)
		errSum += math.Abs(p.Predicted - p.Observed)
		errN++
	}

	// All seven validation campaigns run as one sweep; the points keep
	// their historical base seeds, so every observed rate is bit-identical
	// to the old serial-campaign version.
	up := machine.Uniprocessor()
	upSizes := []int{100, 500, 1000}
	var scs []core.Scenario
	for i, kb := range upSizes {
		scs = append(scs, ViScenario(up, kb, seed+int64(i)*6311, false))
	}
	scs = append(scs, core.Scenario{
		Machine: up, Victim: victim.NewAlwaysSuspended(), Attacker: attack.NewV1(),
		UseSyscall: "chown", FileSize: 100 << 10, Seed: seed + 999,
	})
	t1sc := ViScenario(machine.SMP2(), 0, seed+1777, true)
	t1sc.FileSize = 1
	scs = append(scs, t1sc)
	scs = append(scs, ViScenario(machine.SMP2(), 100, seed+2888, true))
	scs = append(scs, GeditScenario(machine.SMP2(), attack.NewV1(), seed+3999, true))
	results, err := opt.runSweep(scs, rounds)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}

	// Uniprocessor vi at three sizes: Equation 1's first term only, with
	// P(suspended) from quantum phase + stall model.
	for i, kb := range upSizes {
		window := victim.NewVi().WindowEstimate(up, int64(kb)<<10)
		stall := model.StallProbability(int64(kb)<<10, up.Latency.WriteStallProbPerKB)
		eq := model.Uniprocessor(model.UniprocessorSuspension(window, up.Quantum, stall), 1, 1)
		pred, err := eq.SuccessProbability()
		if err != nil {
			return nil, err
		}
		quant(ModelPoint{
			Scenario:  fmt.Sprintf("vi / uniprocessor / %dKB", kb),
			Predicted: pred, Observed: results[i].Rate(),
			Note: "Eq.1 first term (P(susp)·1·1)",
		})
	}

	// Always-suspended victim: Equation 1 upper bound P(susp)=1.
	quant(ModelPoint{
		Scenario:  "rpm-like / uniprocessor / 100KB",
		Predicted: 1.0, Observed: results[3].Rate(),
		Note: "P(victim suspended)=1 ⇒ Eq.1 ≈ 1 (§3.2)",
	})

	// SMP vi, 1 byte: formula (1) with measured L/D variance.
	t1res := results[4]
	quant(ModelPoint{
		Scenario:  "vi / SMP / 1 byte",
		Predicted: model.MultiprocessorSuccess(t1res.Metrics.LUs, t1res.Metrics.DUs, seed),
		Observed:  t1res.Rate(),
		Note:      "formula (1) Monte Carlo over measured L, D",
	})

	// SMP vi, 100KB: L >> D, formula (1) saturates at 1.
	t2res := results[5]
	quant(ModelPoint{
		Scenario:  "vi / SMP / 100KB",
		Predicted: model.LDRate(t2res.Metrics.LUs.Mean(), t2res.Metrics.DUs.Mean()),
		Observed:  t2res.Rate(),
		Note:      "L >> D ⇒ formula (1) = 1",
	})

	// SMP gedit: the conservative clamp(L/D) — under-predicts, exactly
	// as the paper's Table 2 discussion observes.
	gres := results[6]
	out.Points = append(out.Points, ModelPoint{
		Scenario:  "gedit / SMP",
		Predicted: model.LDRate(gres.Metrics.LUs.Mean(), gres.Metrics.DUs.Mean()),
		Observed:  gres.Rate(),
		Note:      "conservative t1 ⇒ under-predicts (paper: 35% vs 83%)",
	})

	if errN > 0 {
		out.MeanAbsErr = errSum / float64(errN)
	}
	return &out, nil
}
