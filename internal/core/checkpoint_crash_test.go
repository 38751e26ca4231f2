package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tocttou/internal/linelog"
	"tocttou/internal/machine"
)

// logOp is one call on a recorded log file: a write's bytes, or a sync.
type logOp struct {
	data []byte
	sync bool
}

// recordingLog passes every call through to the file and records it.
type recordingLog struct {
	linelog.File
	mu  *sync.Mutex
	ops *[]logOp
}

func (l recordingLog) Write(b []byte) (int, error) {
	l.mu.Lock()
	*l.ops = append(*l.ops, logOp{data: bytes.Clone(b)})
	l.mu.Unlock()
	return l.File.Write(b)
}

func (l recordingLog) Sync() error {
	l.mu.Lock()
	*l.ops = append(*l.ops, logOp{sync: true})
	l.mu.Unlock()
	return l.File.Sync()
}

// recordLogs makes every log file opened through the log seam
// (linelog.OpenFile) record its calls until the returned stop restores
// the seam; stop returns the calls.
func recordLogs(t *testing.T) (stop func() []logOp) {
	var mu sync.Mutex
	var ops []logOp
	orig := linelog.OpenFile
	linelog.OpenFile = func(path string) (linelog.File, error) {
		f, err := orig(path)
		if err != nil {
			return nil, err
		}
		return recordingLog{f, &mu, &ops}, nil
	}
	t.Cleanup(func() { linelog.OpenFile = orig })
	return func() []logOp {
		linelog.OpenFile = orig
		mu.Lock()
		defer mu.Unlock()
		return ops
	}
}

// crashStates enumerates the contents a crash can leave a log in: for
// each sync point, the bytes durable there plus a cut of the next write
// at every line boundary, one byte into every line, and the whole
// write. Equal contents are listed once.
func crashStates(ops []logOp) [][]byte {
	var states [][]byte
	seen := make(map[string]bool)
	var durable, pending []byte
	add := func(cut int) {
		state := append(bytes.Clone(durable), pending[:cut]...)
		if !seen[string(state)] {
			seen[string(state)] = true
			states = append(states, state)
		}
	}
	for _, op := range ops {
		if op.sync {
			durable, pending = append(durable, pending...), nil
			continue
		}
		pending = append(pending, op.data...)
		start := len(pending) - len(op.data)
		add(start)
		for at := start; at < len(pending); {
			end := at + bytes.IndexByte(pending[at:], '\n') + 1
			add(at + 1)
			add(end)
			at = end
		}
	}
	return states
}

// TestCheckpointCrashStates records every Write and Sync of a
// checkpointed sweep over fig6's grid — vi against the v1 attacker on
// the uniprocessor, 100 KB to 1000 KB, fig6's seeds — at a 4-round
// budget. Each batch must be one write then one sync. From the calls
// it enumerates what a crash could leave of the file, as campaignd's
// TestJobLogCrashStates does for a job log: the bytes durable at each
// sync, plus a cut of the next write at every line boundary, one byte
// into every line, and the whole write. The first write carries the
// header, so its cuts include torn creations. The cases are fixed by
// the recorded calls alone. Each state must resume to results
// bit-identical to RunSweepPoints while executing exactly the rounds of
// the points whose entry lines the crash cut off, and leave a file that
// reloads every point.
func TestCheckpointCrashStates(t *testing.T) {
	points := make([]SweepPoint, 10)
	for i := range points {
		points[i] = SweepPoint{Scenario: viSc(machine.Uniprocessor(), int64(i+1)*100<<10, 1007+int64(i)*7919, false), Rounds: 4}
	}
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stop := recordLogs(t)
	if _, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, filepath.Join(t.TempDir(), "sweep.ckpt")); err != nil {
		t.Fatal(err)
	}
	ops := stop()
	for k, op := range ops {
		if op.sync != (k%2 == 1) {
			t.Fatalf("log call %d: sync %v; every batch must be one write then one sync", k, op.sync)
		}
	}
	states := crashStates(ops)
	t.Logf("%d points, %d log calls, %d crash states", len(points), len(ops), len(states))
	for i, state := range states {
		// The points a crash cut off: all but those with a complete entry
		// line after the header.
		cut := make(map[int]bool)
		for p := range points {
			cut[p] = true
		}
		for k, line := range bytes.SplitAfter(state, []byte{'\n'}) {
			if k == 0 || !bytes.HasSuffix(line, []byte{'\n'}) {
				continue
			}
			var e PointResult
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("state %d: recorded line %q: %v", i, line, err)
			}
			delete(cut, e.Point)
		}
		rerun := 0
		for p := range cut {
			rerun += points[p].Rounds
		}
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		if err := os.WriteFile(path, state, 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
		if err != nil {
			t.Fatalf("state %d (%d bytes): resume: %v", i, len(state), err)
		}
		resultsEqual(t, "state resume", got, want)
		if stats.RoundsExecuted != rerun {
			t.Fatalf("state %d (%d bytes): resume executed %d rounds, want %d (%d points cut off)", i, len(state), stats.RoundsExecuted, rerun, len(cut))
		}
		if done, err := reloadCheckpoint(path, points); err != nil || len(done) != len(points) {
			t.Fatalf("state %d (%d bytes): resumed file reloads %d points (err %v), want %d", i, len(state), len(done), err, len(points))
		}
	}
}
