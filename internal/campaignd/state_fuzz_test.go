package campaignd

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadJob feeds arbitrary state.json and spec bytes to loadJob, the
// restart path that rebuilds a job from its directory, with or without
// a report.txt beside them. It must never panic. A job it returns as
// resumable holds a compiled grid whose jobKey is its id; a job it
// returns as done or failed holds no spec or grid. A loaded job's state
// is one of the five job states, and a state.json that decodes as
// failed, or as done with its report present, loads as it says. Seeds
// (testdata/fuzz/FuzzLoadJob) are written for fuzzSpec, whose id is
// 6f93b8faab654485: one per state, a torn state.json, an id that does not
// match the spec, a state.json from a build whose JobInfo still had a
// "memoized" field, and one naming a state no build defines.
func FuzzLoadJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, state, spec []byte, report bool) {
		dir := t.TempDir()
		files := map[string][]byte{"state.json": state, "spec": spec}
		if report {
			files["report.txt"] = []byte("report\n")
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// loadJob decodes state.json the same way, so a job it returns
		// implies decoded.
		var stored JobInfo
		decoded := json.Unmarshal(state, &stored) == nil
		settled := decoded && (stored.State == StateFailed || stored.State == StateDone && report)

		j, err := loadJob(dir)
		if err != nil {
			if settled {
				t.Fatalf("a %s state.json failed to load: %v", stored.State, err)
			}
			return
		}
		if settled && j.info.State != stored.State {
			t.Fatalf("a %s state.json loaded as %s", stored.State, j.info.State)
		}
		switch j.info.State {
		case StateQueued, StateRunning, StateDone, StateFailed, StateInterrupted:
		default:
			t.Fatalf("a %q state.json loaded as unknown state %q", stored.State, j.info.State)
		}
		switch j.info.State {
		case StateFailed, StateDone:
			if j.spec != nil || j.compiled != nil {
				t.Fatalf("%s job holds a spec or grid", j.info.State)
			}
			if j.info.State != stored.State && j.info.Error == "" {
				t.Fatalf("%s job failed on load with no error", stored.State)
			}
		default:
			if j.compiled == nil {
				t.Fatalf("resumable %s job holds no grid", j.info.State)
			}
			if key := jobKey(j.spec, j.compiled); key != j.id {
				t.Fatalf("resumable job %q compiles to id %q", j.id, key)
			}
		}
	})
}
