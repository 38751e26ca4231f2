package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"tocttou/internal/scenario"
)

func TestFaultSweepShapeAndRendering(t *testing.T) {
	opt := Options{Rounds: 60, FaultRates: []float64{0, 0.2}}
	res, err := Run("faultsweep", opt)
	if err != nil {
		t.Fatal(err)
	}
	fsw := res.(*scenario.Outcome)
	if len(fsw.Results) != 2*3 {
		t.Fatalf("rows = %d, want 6 (2 rates × 3 policies)", len(fsw.Results))
	}

	// The dependability story: at rate 0 every policy succeeds like the
	// fault-free baseline; at rate 0.2 the give-up policy collapses while
	// retry keeps most of the attack's success alive.
	byKey := make(map[string]float64)
	faults := make(map[string]int64)
	for i, m := range fsw.Compiled.Meta {
		key := m.Policy
		if m.Rate > 0 {
			key += "+faults"
		}
		byKey[key] = fsw.Results[i].Rate()
		faults[key] = fsw.Results[i].Faults.Total()
	}
	if byKey["give-up"] < 0.9 {
		t.Errorf("fault-free give-up rate = %.2f, want near-certain", byKey["give-up"])
	}
	if byKey["give-up+faults"] > 0.3 {
		t.Errorf("faulty give-up rate = %.2f, want collapsed", byKey["give-up+faults"])
	}
	if byKey["retry+faults"] < byKey["give-up+faults"] {
		t.Errorf("retry (%.2f) did not outlast give-up (%.2f) under faults",
			byKey["retry+faults"], byKey["give-up+faults"])
	}
	if faults["give-up"] != 0 {
		t.Errorf("rate-0 point delivered %d faults", faults["give-up"])
	}
	if faults["retry+faults"] == 0 {
		t.Error("rate-0.2 point delivered no faults")
	}

	out := render(t, res)
	for _, want := range []string{"faultsweep", "give-up", "retry+fallback", "fs-err/rnd", "robustness policy"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q", want)
		}
	}
}

func TestFaultSweepRenderDeterministic(t *testing.T) {
	opt := Options{Rounds: 60, FaultRates: []float64{0, 0.05}}
	a, err := Run("faultsweep", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("faultsweep", opt)
	if err != nil {
		t.Fatal(err)
	}
	if ra, rb := render(t, a), render(t, b); ra != rb {
		t.Fatal("identical faultsweep runs rendered differently")
	}
}

func TestFaultSweepRejectsBadRate(t *testing.T) {
	if _, err := Run("faultsweep", Options{Rounds: 10, FaultRates: []float64{0.5, 1.2}}); err == nil {
		t.Error("out-of-range fault rate accepted")
	}
}

func TestFaultSweepCheckpointRoutedThroughOptions(t *testing.T) {
	// Options.Checkpoint must reach the sweep: a second run against the
	// completed checkpoint file restores every point and renders
	// identically.
	dir := t.TempDir()
	opt := Options{Rounds: 40, FaultRates: []float64{0, 0.2}, Checkpoint: filepath.Join(dir, "fs.ckpt")}
	a, err := Run("faultsweep", opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("faultsweep", opt)
	if err != nil {
		t.Fatal(err)
	}
	if ra, rb := render(t, a), render(t, b); ra != rb {
		t.Fatal("checkpoint-restored faultsweep rendered differently")
	}
}

func TestSupportsCheckpoint(t *testing.T) {
	for _, name := range []string{"fig6", "headline", "faultsweep"} {
		if !SupportsCheckpoint(name) {
			t.Errorf("SupportsCheckpoint(%q) = false, want true", name)
		}
	}
	// sendmail folds per-round state through an OnRound side channel a
	// restored point would skip; it must stay non-checkpointable.
	for _, name := range []string{"sendmail", "fig8", "nope"} {
		if SupportsCheckpoint(name) {
			t.Errorf("SupportsCheckpoint(%q) = true, want false", name)
		}
	}
}
