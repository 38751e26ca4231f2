package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"tocttou/internal/scenario"
)

// Experiment tests run at reduced round counts: they assert structure and
// the qualitative bands, not publication-grade statistics (those are the
// benchmark harness's job).

func render(t *testing.T, r Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	return buf.String()
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 13 {
		t.Fatalf("registered experiments = %d, want >= 13", len(names))
	}
	for _, n := range names {
		if desc, ok := Describe(n); !ok || desc == "" {
			t.Errorf("experiment %q has no description", n)
		}
	}
	if _, ok := Describe("nope"); ok {
		t.Error("unknown experiment described")
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown experiment ran")
	}
}

func TestFig6ShapeAndRendering(t *testing.T) {
	res, err := Run("fig6", Options{Rounds: 80, Sizes: []int{100, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.(*scenario.Outcome)
	if len(fig.Results) != 2 {
		t.Fatalf("rows = %d", len(fig.Results))
	}
	small, large := fig.Results[0], fig.Results[1]
	if small.Rate() > 0.10 {
		t.Errorf("100KB rate = %.1f%%, want low single digits", small.Rate()*100)
	}
	if large.Rate() < small.Rate() {
		t.Errorf("rate must grow with size: %.1f%% vs %.1f%%",
			small.Rate()*100, large.Rate()*100)
	}
	if pred := scenario.Fig6Prediction(fig.Spec.Machine, fig.Compiled.Meta[1].SizeKB); pred < 0.10 || pred > 0.25 {
		t.Errorf("1MB model prediction = %.1f%%, want ~16%%", pred*100)
	}
	out := render(t, fig)
	for _, want := range []string{"Figure 6", "file size (KB)", "model predicts", "success rate vs file size"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

// TestSpecOverridesValidated pins that Options overriding a
// spec-defined experiment get the checks a parsed spec gets: a file size
// whose byte count wraps, or a grid past the point limit, is an error
// before any round runs.
func TestSpecOverridesValidated(t *testing.T) {
	tooMany := make([]int, 10_001)
	for i := range tooMany {
		tooMany[i] = i + 1
	}
	for _, c := range []struct {
		name  string
		sizes []int
		want  string
	}{
		{"size overflow", []int{100, scenario.MaxSizeKB + 1}, "sizes_kb[1]: 9007199254740992 KB overflows a byte count"},
		{"too many points", tooMany, "point limit"},
	} {
		_, err := Run("fig6", Options{Rounds: 2, Sizes: c.sizes})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

func TestViSMPSweepAllHigh(t *testing.T) {
	res, err := ViSMPSweep(Options{Rounds: 50, Sizes: []int{20, 500, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	sweep := res.(*ViSMPResult)
	for _, row := range sweep.Rows {
		if row.Result.Rate() < 0.98 {
			t.Errorf("%dKB rate = %.1f%%, want ~100%%", row.SizeKB, row.Result.Rate()*100)
		}
	}
	if !strings.Contains(render(t, sweep), "minimum rate") {
		t.Error("rendering missing minimum rate")
	}
}

func TestFig7LinearLFlatD(t *testing.T) {
	res, err := Fig7(Options{Rounds: 40, Sizes: []int{100, 400, 800}})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.(*Fig7Result)
	if fig.Slope < 14 || fig.Slope > 19 {
		t.Errorf("L slope = %.2f µs/KB, want ≈16.5", fig.Slope)
	}
	if fig.Corr < 0.999 {
		t.Errorf("L-size correlation = %.4f, want ~1 (linear)", fig.Corr)
	}
	for _, row := range fig.Rows {
		if d := row.Result.Metrics.DUs.Mean(); d < 30 || d > 50 {
			t.Errorf("%dKB D = %.1f, want flat ≈40µs", row.SizeKB, d)
		}
		if row.Result.Metrics.LUs.Mean() <= row.Result.Metrics.DUs.Mean() {
			t.Errorf("%dKB: L must exceed D", row.SizeKB)
		}
	}
}

func TestTable1Bands(t *testing.T) {
	res, err := Table1(Options{Rounds: 150})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.(*Table1Result)
	if l := tbl.Campaign.Metrics.LUs.Mean(); l < 50 || l > 75 {
		t.Errorf("L = %.1f, want ≈61.6", l)
	}
	if d := tbl.Campaign.Metrics.DUs.Mean(); d < 32 || d > 50 {
		t.Errorf("D = %.1f, want ≈41.1", d)
	}
	if r := tbl.Campaign.Rate(); r < 0.90 {
		t.Errorf("rate = %.1f%%, want ≈96%%", r*100)
	}
	if tbl.PredictedMC <= 0.5 || tbl.PredictedMC > 1 {
		t.Errorf("MC prediction = %.2f", tbl.PredictedMC)
	}
	if !strings.Contains(render(t, tbl), "Table 1") {
		t.Error("rendering missing title")
	}
}

func TestTable2ConservativePrediction(t *testing.T) {
	res, err := Table2(Options{Rounds: 150})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.(*Table2Result)
	if r := tbl.Campaign.Rate(); r < 0.60 || r > 0.95 {
		t.Errorf("rate = %.1f%%, want ≈83%%", r*100)
	}
	// The paper's core observation about its own Table 2: the formula's
	// point estimate is far below the observed rate.
	if tbl.PredictedPoint > tbl.Campaign.Rate()-0.2 {
		t.Errorf("point prediction %.2f should under-predict observed %.2f",
			tbl.PredictedPoint, tbl.Campaign.Rate())
	}
}

func TestGeditCampaignContrasts(t *testing.T) {
	up, err := GeditUniprocessor(Options{Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	mc1, err := GeditMulticoreV1(Options{Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	mc2, err := GeditMulticoreV2(Options{Rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r := up.(*CampaignSummary).Campaign.Rate(); r > 0.02 {
		t.Errorf("uniprocessor rate = %.1f%%, want ~0", r*100)
	}
	if r := mc1.(*CampaignSummary).Campaign.Rate(); r > 0.05 {
		t.Errorf("multicore v1 rate = %.1f%%, want ~0", r*100)
	}
	if r := mc2.(*CampaignSummary).Campaign.Rate(); r < 0.30 {
		t.Errorf("multicore v2 rate = %.1f%%, want many successes", r*100)
	}
}

func TestFig8TimelineShowsTrapAndBlockedUnlink(t *testing.T) {
	res, err := Fig8(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.(*TimelineResult)
	if tl.Round.Success {
		t.Error("fig8 must capture a FAILED round")
	}
	out := render(t, tl)
	for _, want := range []string{"trap", "unlink", "chmod", "rename"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 timeline missing %q", want)
		}
	}
}

func TestFig10TimelineShowsSuccess(t *testing.T) {
	res, err := Fig10(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.(*TimelineResult)
	if !tl.Round.Success {
		t.Error("fig10 must capture a SUCCESSFUL round")
	}
	if strings.Contains(tl.Rendered, "trap") {
		t.Error("fig10 (pre-faulted v2) must not trap in the window region")
	}
	for _, want := range []string{"rename", "chmod", "symlink"} {
		if !strings.Contains(tl.Rendered, want) {
			t.Errorf("fig10 timeline missing %q", want)
		}
	}
}

func TestFig11ParallelSpeedsUpAttack(t *testing.T) {
	res, err := Fig11(Options{Sizes: []int{100, 500}})
	if err != nil {
		t.Fatal(err)
	}
	fig := res.(*Fig11Result)
	if len(fig.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(fig.Rows))
	}
	byKey := map[string]Fig11Row{}
	for _, r := range fig.Rows {
		key := map[bool]string{true: "p", false: "s"}[r.Parallel]
		byKey[key+strconv.Itoa(r.SizeKB)] = r
	}
	for _, kb := range []int{100, 500} {
		seq := byKey["s"+strconv.Itoa(kb)]
		par := byKey["p"+strconv.Itoa(kb)]
		if par.AttackDone >= seq.AttackDone {
			t.Errorf("%dKB: parallel done %.1f must beat sequential %.1f",
				kb, par.AttackDone, seq.AttackDone)
		}
		// §7: the parallel symlink completes while unlink still truncates.
		if par.SymlinkEnd >= par.UnlinkEnd {
			t.Errorf("%dKB: parallel symlink (%.1f) must finish before unlink (%.1f)",
				kb, par.SymlinkEnd, par.UnlinkEnd)
		}
		// Sequentially the symlink waits for the whole unlink.
		if seq.SymlinkStart < seq.UnlinkEnd-1 {
			t.Errorf("%dKB: sequential symlink started at %.1f before unlink ended %.1f",
				kb, seq.SymlinkStart, seq.UnlinkEnd)
		}
	}
	// The speedup grows with file size (truncation dominates).
	gain100 := byKey["s100"].AttackDone / byKey["p100"].AttackDone
	gain500 := byKey["s500"].AttackDone / byKey["p500"].AttackDone
	if gain500 <= gain100 {
		t.Errorf("speedup must grow with size: %.1fx vs %.1fx", gain100, gain500)
	}
}

func TestModelValidationAccuracy(t *testing.T) {
	res, err := ModelValidation(Options{Rounds: 120})
	if err != nil {
		t.Fatal(err)
	}
	mv := res.(*ModelValidationResult)
	if len(mv.Points) < 6 {
		t.Fatalf("points = %d", len(mv.Points))
	}
	if mv.MeanAbsErr > 0.12 {
		t.Errorf("mean |error| = %.1f%%, want <= 12%%", mv.MeanAbsErr*100)
	}
}

func TestHeadlineContrast(t *testing.T) {
	res, err := Headline(Options{Rounds: 80})
	if err != nil {
		t.Fatal(err)
	}
	h := res.(*HeadlineResult)
	rates := map[string]float64{}
	for _, row := range h.Rows {
		rates[row.Scenario+"/"+row.Machine] = row.Rate
	}
	if rates["vi 100KB/SMP 2-way"] < 0.99 {
		t.Errorf("vi SMP = %.2f", rates["vi 100KB/SMP 2-way"])
	}
	if rates["vi 100KB/uniprocessor"] > 0.10 {
		t.Errorf("vi UP = %.2f", rates["vi 100KB/uniprocessor"])
	}
	if rates["gedit v1/SMP 2-way"] < 0.6 {
		t.Errorf("gedit SMP = %.2f", rates["gedit v1/SMP 2-way"])
	}
	if rates["gedit v1/multi-core 4-way"] > 0.05 {
		t.Errorf("gedit MC v1 = %.2f", rates["gedit v1/multi-core 4-way"])
	}
	if rates["gedit v2/multi-core 4-way"] < 0.3 {
		t.Errorf("gedit MC v2 = %.2f", rates["gedit v2/multi-core 4-way"])
	}
}

func TestDefenseStopsAttacks(t *testing.T) {
	res, err := DefenseEvaluation(Options{Rounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	d := res.(*DefenseResult)
	for _, row := range d.Rows {
		if row.Enforced > 0.05 {
			t.Errorf("%s: enforced rate = %.1f%%, want ~0", row.Scenario, row.Enforced*100)
		}
		if row.Baseline < 0.5 {
			t.Errorf("%s: baseline = %.1f%%, expected a potent attack", row.Scenario, row.Baseline*100)
		}
	}
}
