package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/machine"
	"tocttou/internal/report"
	"tocttou/internal/victim"
)

// SessionRow is one point of the repeated-saves study.
type SessionRow struct {
	Saves    int
	Observed float64
	// Geometric is 1-(1-p1)^saves from the measured single-save rate.
	Geometric float64
}

// SessionResult quantifies how per-save risk compounds over an editing
// session: the paper's window opens at every save (Fig. 1), so even the
// "low-risk" uniprocessor numbers become substantial once the admin saves
// a handful of times.
type SessionResult struct {
	Rows      []SessionRow
	Rounds    int
	PerSave   float64
	MaxAbsGap float64
}

// Name implements Result.
func (r *SessionResult) Name() string { return "session" }

// Render implements Result.
func (r *SessionResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Session study — vi 200KB on the uniprocessor, multiple saves (%d rounds)\n", r.Rounds)
	fmt.Fprintf(w, "The window reopens at every save; per-session risk compounds geometrically.\n\n")
	tbl := &report.Table{Headers: []string{"saves", "observed session success", "1-(1-p)^k from p=single-save"}}
	xs := make([]float64, 0, len(r.Rows))
	obs := make([]float64, 0, len(r.Rows))
	geo := make([]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		tbl.AddRow(
			fmt.Sprintf("%d", row.Saves),
			fmt.Sprintf("%.1f%%", row.Observed*100),
			fmt.Sprintf("%.1f%%", row.Geometric*100),
		)
		xs = append(xs, float64(row.Saves))
		obs = append(obs, row.Observed*100)
		geo = append(geo, row.Geometric*100)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nper-save rate p = %.1f%%; max |observed - geometric| = %.1f%%\n\n",
		r.PerSave*100, r.MaxAbsGap*100)
	chart := &report.Chart{
		Title:  "session capture probability vs saves (uniprocessor)",
		XLabel: "saves", YLabel: "%", Xs: xs,
		Series: []report.Series{
			{Name: "observed", Ys: obs},
			{Name: "geometric", Ys: geo},
		},
	}
	return chart.Render(w)
}

// SessionStudy measures session success for growing save counts.
func SessionStudy(opt Options) (Result, error) {
	rounds := opt.rounds(300)
	seed := opt.seed(17041)
	m := machine.Uniprocessor()
	const sizeKB = 200
	saves := []int{1, 2, 5, 10, 20}

	base := func(s int64) core.Scenario {
		return core.Scenario{
			Machine: m, Victim: victim.NewVi(), Attacker: attack.NewV1(),
			UseSyscall: "chown", FileSize: sizeKB << 10, Seed: s,
		}
	}

	// The single-save rate anchors the geometric baseline; estimate it
	// with extra rounds so the whole comparison isn't hostage to its
	// sampling noise. It runs as one more sweep point with a bigger
	// budget, interleaved with the session points.
	anchor := rounds * 4
	if anchor < 600 {
		anchor = 600
	}
	points := make([]core.SweepPoint, 0, len(saves)+1)
	points = append(points, core.SweepPoint{Scenario: base(seed), Rounds: anchor})
	for i, k := range saves {
		sc := base(seed + int64(i+1)*104729)
		if k != 1 {
			sc.Victim = victim.NewSession(victim.NewVi(), k)
		}
		points = append(points, core.SweepPoint{Scenario: sc, Rounds: rounds})
	}
	results, _, err := opt.runSweepPoints(points, core.SweepOptions{})
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	p1 := results[0].Rate()
	out := &SessionResult{Rounds: rounds, PerSave: p1}
	for i, k := range saves {
		obs := results[i+1].Rate()
		geo := 1 - math.Pow(1-p1, float64(k))
		out.Rows = append(out.Rows, SessionRow{Saves: k, Observed: obs, Geometric: geo})
		if gap := math.Abs(obs - geo); gap > out.MaxAbsGap {
			out.MaxAbsGap = gap
		}
	}
	return out, nil
}

// GapRow is one point of the window-width sensitivity sweep.
type GapRow struct {
	GapMicros float64
	Observed  float64
}

// GapSweepResult interpolates between the paper's two machines: gedit's
// rename→chmod gap is 3 µs on the multi-core (attack v2 barely wins) and
// 43 µs on the SMP (attack wins easily). Sweeping the gap exposes the
// crossover where the attacker's detect-and-redirect latency sits.
type GapSweepResult struct {
	Rows   []GapRow
	Rounds int
}

// Name implements Result.
func (r *GapSweepResult) Name() string { return "gapsweep" }

// Render implements Result.
func (r *GapSweepResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Sensitivity — gedit v2 success vs rename→chmod gap on the multi-core (%d rounds)\n", r.Rounds)
	fmt.Fprintf(w, "The paper's machines sit at 3µs (multi-core) and 43µs (SMP) on this curve.\n\n")
	tbl := &report.Table{Headers: []string{"gap (µs)", "success rate"}}
	xs := make([]float64, 0, len(r.Rows))
	ys := make([]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		tbl.AddRow(fmt.Sprintf("%.0f", row.GapMicros), fmt.Sprintf("%.1f%%", row.Observed*100))
		xs = append(xs, row.GapMicros)
		ys = append(ys, row.Observed*100)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	chart := &report.Chart{
		Title: "attack success vs victim gap width", XLabel: "µs", YLabel: "%",
		Xs:     xs,
		Series: []report.Series{{Name: "gedit v2 / multi-core", Ys: ys}},
	}
	return chart.Render(w)
}

// GapSweep sweeps gedit's rename→chmod gap on the multi-core.
func GapSweep(opt Options) (Result, error) {
	rounds := opt.rounds(300)
	seed := opt.seed(18047)
	gaps := []int{0, 1, 2, 3, 5, 8, 12, 16, 24}
	scs := make([]core.Scenario, len(gaps))
	for i, us := range gaps {
		m := machine.MultiCore()
		m.GeditRenameChmodGap = time.Duration(us) * time.Microsecond
		scs[i] = core.Scenario{
			Machine: m, Victim: victim.NewGedit(), Attacker: attack.NewV2(),
			UseSyscall: "chmod", FileSize: geditFileKB << 10,
			Seed: seed + int64(i)*9973,
		}
	}
	results, err := opt.runSweep(scs, rounds)
	if err != nil {
		return nil, fmt.Errorf("gapsweep: %w", err)
	}
	out := &GapSweepResult{Rounds: rounds}
	for i, us := range gaps {
		out.Rows = append(out.Rows, GapRow{GapMicros: float64(us), Observed: results[i].Rate()})
	}
	return out, nil
}
