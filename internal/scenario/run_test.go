package scenario

import (
	"path/filepath"
	"testing"
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
// re-simulating (memoized restores count, nothing executes twice).
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
