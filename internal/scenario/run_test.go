package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tocttou/internal/core"
	"tocttou/internal/fault"
	"tocttou/internal/metrics"
	"tocttou/internal/stats"
)

func loadExample(t *testing.T, name string) *Spec {
	t.Helper()
	spec, err := Load(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScenarioCheckpointComposes pins that -scenario × -checkpoint rides
// the sweep engine's crash-safe path: a checkpointed scenario run matches
// the direct run bit-for-bit, and a rerun resumes from the file without
// re-simulating (nothing executes twice).
func TestScenarioCheckpointComposes(t *testing.T) {
	spec := loadExample(t, "fig6.yaml")
	spec.Rounds = 25
	spec.SizesKB = []int{100, 200}
	spec.Assertions = nil

	direct, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "scenario.ckpt")
	first, err := Run(spec, RunOptions{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Results {
		if direct.Results[i] != first.Results[i] {
			t.Errorf("point %d: checkpointed result differs from direct", i)
		}
	}
	second, err := Run(spec, RunOptions{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.RoundsExecuted != 0 {
		t.Errorf("resumed run executed %d rounds, want 0 (all restored)", second.Stats.RoundsExecuted)
	}
	for i := range direct.Results {
		if direct.Results[i] != second.Results[i] {
			t.Errorf("point %d: resumed result differs from direct", i)
		}
	}
}

// parentResult is a CampaignResult as builds before the one latency
// record wrote it: L, D, Window and WindowRounds sat between AttackErrors
// and SuspendedRounds, duplicating Metrics.LUs, .DUs, .WindowUs and
// .WindowUs.N().
type parentResult struct {
	Rounds, Successes, Detected, AttackErrors int
	L, D, Window                              stats.Summary
	WindowRounds, SuspendedRounds             int
	Metrics                                   metrics.Point
	Faults                                    fault.Counters
	VictimErrors                              int
}

// TestScenarioCheckpointRestoresParentLines resumes a traced scenario
// from a checkpoint whose entry lines carry the L, D, Window and
// WindowRounds members older builds wrote. Every point must restore,
// none may re-run, and the report must render byte-identical to the
// uninterrupted run's.
func TestScenarioCheckpointRestoresParentLines(t *testing.T) {
	spec := loadExample(t, "fig6.yaml")
	spec.Rounds = 25
	spec.SizesKB = []int{100, 200, 300}
	spec.Trace = true
	spec.Assertions = nil

	direct, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := direct.Render(&want); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "scenario.ckpt")
	if _, err := Run(spec, RunOptions{Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	old := append([]byte(nil), lines[0]...) // the header
	withL := 0
	for _, line := range lines[1:] {
		if len(line) == 0 {
			continue
		}
		var e core.PointResult
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		r, m := e.Result, e.Result.Metrics
		if m.LUs.N() > 0 {
			withL++
		}
		enc, err := json.Marshal(struct {
			Point  int          `json:"point"`
			Result parentResult `json:"result"`
		}{e.Point, parentResult{
			r.Rounds, r.Successes, r.Detected, r.AttackErrors,
			m.LUs, m.DUs, m.WindowUs,
			int(m.WindowUs.N()), r.SuspendedRounds,
			m, r.Faults, r.VictimErrors,
		}})
		if err != nil {
			t.Fatal(err)
		}
		old = append(append(old, enc...), '\n')
	}
	if withL == 0 || !bytes.Contains(old, []byte(`"WindowRounds":25,`)) {
		t.Fatal("rewritten checkpoint carries no L or window observations")
	}
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Run(spec, RunOptions{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.RoundsExecuted != 0 {
		t.Errorf("resumed run executed %d rounds, want 0 (all restored)", resumed.Stats.RoundsExecuted)
	}
	for i := range direct.Results {
		if direct.Results[i] != resumed.Results[i] {
			t.Errorf("point %d: result restored from an old line differs from direct", i)
		}
	}
	var got strings.Builder
	if err := resumed.Render(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("report after resuming from old lines diverged:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if kept, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(kept, old) {
		t.Errorf("resume rewrote the old checkpoint (err %v)", err)
	}
}

// TestPerRoundMetrics pins the fault-rate assertion metrics: each sums
// its counter over the selection and divides by the selected rounds, and
// a selection without rounds reads 0.
func TestPerRoundMetrics(t *testing.T) {
	spec := mustParse(t, minimalSpec)
	o := &Outcome{Spec: spec, Results: []core.CampaignResult{
		{Rounds: 10, Faults: fault.Counters{FSErrors: 2, SemInterrupts: 4, Kills: 1, Restarts: 1}},
		{Rounds: 30, Faults: fault.Counters{FSErrors: 6, SemInterrupts: 4, Kills: 3, Restarts: 1}},
	}}
	for metric, want := range map[string]float64{
		"fs_errors_per_round":      0.2,
		"sem_interrupts_per_round": 0.2,
		"kills_per_round":          0.1,
		"restarts_per_round":       0.05,
	} {
		if got, err := o.evalMetric(Assertion{Metric: metric, Point: -1}); err != nil || got != want {
			t.Errorf("%s = %v, %v; want %v", metric, got, err, want)
		}
	}
	empty := &Outcome{Spec: spec, Results: []core.CampaignResult{{}}}
	if got, err := empty.evalMetric(Assertion{Metric: "kills_per_round", Point: -1}); err != nil || got != 0 {
		t.Errorf("kills_per_round over no rounds = %v, %v; want 0", got, err)
	}
}
