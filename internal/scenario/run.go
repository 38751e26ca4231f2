package scenario

// Execution and rendering: a compiled scenario runs through the same
// sweep engine as the Go-wired experiments, then renders either the
// generic table or — for report: fig6 / faultsweep — the paper-figure
// rendering those experiments print (they run the shipped specs).

import (
	"fmt"
	"io"

	"tocttou/internal/core"
	"tocttou/internal/machine"
	"tocttou/internal/metrics"
	"tocttou/internal/model"
	"tocttou/internal/report"
	"tocttou/internal/victim"
)

// RunOptions tunes a scenario execution.
type RunOptions struct {
	// Checkpoint, when non-empty, runs the sweep crash-safely through
	// core.RunSweepPointsCheckpoint with this state file.
	Checkpoint string
}

// Outcome is a completed scenario run.
type Outcome struct {
	Spec     *Spec
	Compiled *Compiled
	Results  []core.CampaignResult
	Stats    core.SweepStats
}

// Run compiles and executes the scenario.
func Run(spec *Spec, opt RunOptions) (*Outcome, error) {
	c, err := Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	results, stats, err := core.RunSweepPointsCheckpoint(c.Points, core.SweepOptions{}, opt.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	return &Outcome{Spec: spec, Compiled: c, Results: results, Stats: stats}, nil
}

// Name returns the scenario's name, the snapshot name -golden writes.
func (o *Outcome) Name() string { return o.Spec.Name }

// Render writes the outcome's report.
func (o *Outcome) Render(w io.Writer) error {
	switch o.Spec.Report {
	case "fig6":
		return o.renderFig6(w)
	case "faultsweep":
		return o.renderFaultSweep(w)
	}
	return o.renderTable(w)
}

// renderFig6 renders the paper's Figure 6: success rate per file size
// with its Wilson interval, next to the closed-form model prediction.
func (o *Outcome) renderFig6(w io.Writer) error {
	fmt.Fprintf(w, "Figure 6 — vi attack success rate on a uniprocessor (%d rounds per size)\n", o.Spec.Rounds)
	fmt.Fprintf(w, "Paper: low single digits at 100KB rising to ~18%% at 1MB, noisy.\n\n")
	tbl := &report.Table{Headers: []string{"file size (KB)", "success", "rate", "95% CI", "model predicts"}}
	n := len(o.Results)
	xs, ys, preds := make([]float64, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	for i, m := range o.Compiled.Meta {
		res := o.Results[i]
		pred := Fig6Prediction(o.Spec.Machine, m.SizeKB)
		lo, hi := res.Proportion().WilsonInterval(1.96)
		tbl.AddRow(
			fmt.Sprintf("%d", m.SizeKB),
			fmt.Sprintf("%d/%d", res.Successes, res.Rounds),
			fmt.Sprintf("%.1f%%", res.Rate()*100),
			fmt.Sprintf("[%.1f%%, %.1f%%]", lo*100, hi*100),
			fmt.Sprintf("%.1f%%", pred*100),
		)
		xs = append(xs, float64(m.SizeKB))
		ys = append(ys, res.Rate()*100)
		preds = append(preds, pred*100)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	chart := &report.Chart{
		Title: "success rate vs file size (uniprocessor)", XLabel: "KB", YLabel: "%",
		Xs: xs,
		Series: []report.Series{
			{Name: "measured", Ys: ys},
			{Name: "model", Ys: preds},
		},
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	return o.renderMetrics(w, func(m PointMeta) string { return fmt.Sprintf("%d KB", m.SizeKB) })
}

// Fig6Prediction is the closed-form model prediction the fig6 report
// pairs with each measured point: the uniprocessor suspension
// probability over vi's estimated window for the file size.
func Fig6Prediction(m machine.Profile, sizeKB int) float64 {
	size := int64(sizeKB) << 10
	window := victim.NewVi().WindowEstimate(m, size)
	stall := model.StallProbability(size, m.Latency.WriteStallProbPerKB)
	return model.UniprocessorSuspension(window, m.Quantum, stall)
}

// renderFaultSweep renders the (rate × policy) grid as a table of
// success and fault counters, then charts success against fault rate
// with one series per policy, in the spec's policy order.
func (o *Outcome) renderFaultSweep(w io.Writer) error {
	fmt.Fprintf(w, "faultsweep — vi SMP attack success under injected faults (%d rounds per point)\n", o.Spec.Rounds)
	fmt.Fprintf(w, "At rate p: each fs op fails with an injected errno w.p. p, each blocked semaphore\n")
	fmt.Fprintf(w, "wait is EINTR-interrupted w.p. p, and each program is killed mid-round w.p. p/2\n")
	fmt.Fprintf(w, "(the victim restarts, supervised). Policies differ only in error handling.\n\n")
	tbl := &report.Table{Headers: append([]string{"fault rate", "policy"}, pointHeaders(true)[2:]...)}
	for i, m := range o.Compiled.Meta {
		tbl.AddRow(pointRow(fmt.Sprintf("%.3f", m.Rate), m.Policy, o.Results[i], true)...)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	var xs []float64
	series := make([]report.Series, 0, len(o.Spec.Policies))
	for _, pol := range o.Spec.Policies {
		var ys []float64
		xs = xs[:0]
		for i, m := range o.Compiled.Meta {
			if m.Policy != pol.Label {
				continue
			}
			xs = append(xs, m.Rate*100)
			ys = append(ys, o.Results[i].Rate()*100)
		}
		series = append(series, report.Series{Name: pol.Label, Ys: ys})
	}
	chart := &report.Chart{
		Title:  "attack success vs fault rate, by robustness policy",
		XLabel: "fault rate (%)", YLabel: "%",
		Xs:     xs,
		Series: series,
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	return o.renderMetrics(w, func(m PointMeta) string { return fmt.Sprintf("p=%.3f %s", m.Rate, m.Policy) })
}

// renderMetrics appends the kernel-metrics section (per-point counters
// plus pooled window/D/L histograms) when the spec ran traced, labelling
// each point with label.
func (o *Outcome) renderMetrics(w io.Writer, label func(PointMeta) string) error {
	if !o.Spec.Trace {
		return nil
	}
	labels := make([]string, len(o.Results))
	pts := make([]metrics.Point, len(o.Results))
	for i, m := range o.Compiled.Meta {
		labels[i] = label(m)
		pts[i] = o.Results[i].Metrics
	}
	return report.MetricsSection(w, labels, pts)
}

// renderTable is the generic report: one row per point, plus a pooled
// per-template section for fleets (the per-member table of a 600-victim
// fleet is data, not a summary — the template aggregates are the
// headline there).
func (o *Outcome) renderTable(w io.Writer) error {
	s := o.Spec
	fmt.Fprintf(w, "scenario %s — %d points × %d rounds\n", s.Name, len(o.Results), s.Rounds)
	if s.Description != "" {
		fmt.Fprintf(w, "%s\n", s.Description)
	}
	fmt.Fprintln(w)

	hasFaults := s.Faults != nil
	if s.Fleet != nil {
		if err := o.renderTemplateAggregates(w, hasFaults); err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "per-member results:")
	}
	tbl := &report.Table{Headers: pointHeaders(hasFaults)}
	for i, m := range o.Compiled.Meta {
		tbl.AddRow(pointRow(fmt.Sprintf("%d", i), m.Label, o.Results[i], hasFaults)...)
	}
	return tbl.Render(w)
}

func pointHeaders(faults bool) []string {
	h := []string{"point", "label", "success", "rate", "victim-fail", "attack-err"}
	if faults {
		h = append(h, "fs-err/rnd", "eintr/rnd", "kill/rnd", "restart/rnd")
	}
	return h
}

func pointRow(id, label string, res core.CampaignResult, faults bool) []string {
	row := []string{
		id, label,
		fmt.Sprintf("%d/%d", res.Successes, res.Rounds),
		fmt.Sprintf("%.1f%%", res.Rate()*100),
		fmt.Sprintf("%d", res.VictimErrors),
		fmt.Sprintf("%d", res.AttackErrors),
	}
	if faults {
		n := float64(res.Rounds)
		row = append(row,
			fmt.Sprintf("%.2f", float64(res.Faults.FSErrors)/n),
			fmt.Sprintf("%.2f", float64(res.Faults.SemInterrupts)/n),
			fmt.Sprintf("%.2f", float64(res.Faults.Kills)/n),
			fmt.Sprintf("%.2f", float64(res.Faults.Restarts)/n),
		)
	}
	return row
}

// renderTemplateAggregates pools each template's members into one row,
// in the spec's template order.
func (o *Outcome) renderTemplateAggregates(w io.Writer, hasFaults bool) error {
	fmt.Fprintf(w, "fleet: %d members from %d templates (jitter seed %d)\n\n",
		o.Spec.Fleet.Total, len(o.Spec.Fleet.Templates), o.Spec.Fleet.JitterSeed)
	tbl := &report.Table{Headers: append([]string{"template", "members"}, pointHeaders(hasFaults)[2:]...)}
	for _, t := range o.Spec.Fleet.Templates {
		var sum core.CampaignResult
		members := 0
		for i, m := range o.Compiled.Meta {
			if m.Template != t.Name {
				continue
			}
			members++
			r := o.Results[i]
			sum.Rounds += r.Rounds
			sum.Successes += r.Successes
			sum.VictimErrors += r.VictimErrors
			sum.AttackErrors += r.AttackErrors
			sum.Faults.Add(r.Faults)
		}
		row := pointRow(t.Name, "", sum, hasFaults)
		// pointRow's first two columns are id+label; collapse to
		// template name + member count for the aggregate view.
		row[1] = fmt.Sprintf("%d", members)
		tbl.AddRow(row...)
	}
	return tbl.Render(w)
}
