package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"tocttou/internal/linelog"
	"tocttou/internal/machine"
)

// logOp is one call on a recorded log file — a write's bytes, or a
// sync — or, with finished set, the moment point finished.
type logOp struct {
	data     []byte
	sync     bool
	finished bool
	point    int
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
// the seam; finish records that a point finished, among those calls.
// stop returns the calls.
func recordLogs(t *testing.T) (finish func(point int), stop func() []logOp) {
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
	finish = func(point int) {
		mu.Lock()
		ops = append(ops, logOp{finished: true, point: point})
		mu.Unlock()
	}
	return finish, func() []logOp {
		linelog.OpenFile = orig
		mu.Lock()
		defer mu.Unlock()
		return ops
	}
}

// crashStates enumerates the contents a crash can leave a log in: for
// each sync point, the bytes durable there plus a cut of the next write
// at every line boundary, one byte into every line, and the whole
// write. Equal contents are listed once. held[i] counts the points that
// had finished when state i's crash came but waited above an unfinished
// one, unwritten.
func crashStates(ops []logOp) (states [][]byte, held []int) {
	seen := make(map[string]bool)
	var durable, pending []byte
	var finished []bool
	add := func(cut int) {
		state := append(bytes.Clone(durable), pending[:cut]...)
		if !seen[string(state)] {
			seen[string(state)] = true
			states = append(states, state)
			held = append(held, heldAbove(finished))
		}
	}
	for _, op := range ops {
		switch {
		case op.finished:
			for len(finished) <= op.point {
				finished = append(finished, false)
			}
			finished[op.point] = true
			continue
		case op.sync:
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
	return states, held
}

// heldAbove counts the finished points above the first unfinished one.
func heldAbove(finished []bool) int {
	n, low := 0, slices.Index(finished, false)
	for low >= 0 && low < len(finished) {
		if finished[low] {
			n++
		}
		low++
	}
	return n
}

// TestCheckpointCrashStates records every Write and Sync of a
// checkpointed sweep over fig6's grid — vi against the v1 attacker on
// the uniprocessor, 100 KB to 1000 KB, fig6's seeds — at a 4-round
// budget, and the moment each point finishes. Each batch must be one
// write then one sync. From the calls it enumerates what a crash could
// leave of the file, as campaignd's TestJobLogCrashStates does for a
// job log: the bytes durable at each sync, plus a cut of the next write
// at every line boundary, one byte into every line, and the whole
// write. The first write carries the header, so its cuts include torn
// creations. The cases are fixed by the recorded calls alone. Every
// state must be a byte prefix of the uninterrupted run's file and load
// to one; resuming it must give results bit-identical to
// RunSweepPoints while executing exactly the rounds of the points after
// the loaded prefix, and finish with the uninterrupted run's file byte
// for byte. The points a state's crash stranded finished but unwritten,
// held above an unfinished one, are counted and logged.
func TestCheckpointCrashStates(t *testing.T) {
	points := make([]SweepPoint, 10)
	for i := range points {
		points[i] = SweepPoint{Scenario: viSc(machine.Uniprocessor(), int64(i+1)*100<<10, 1007+int64(i)*7919, false), Rounds: 4}
	}
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	finish, stop := recordLogs(t)
	ref := filepath.Join(t.TempDir(), "sweep.ckpt")
	store, err := OpenCheckpoint(ref, points, AdaptiveStop{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ResumeSweep(store, points, func([]PointResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = RunSweepSubset(points, rs.Pending, SweepOptions{OnPointDone: func(p int, res CampaignResult) {
		finish(p)
		rs.Commit(p, res)
	}})
	if derr := rs.Drain(); err == nil {
		err = derr
	}
	if err != nil {
		t.Fatal(err)
	}
	ops := stop()
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, op := range ops {
		if op.finished {
			continue
		}
		if op.sync != (calls%2 == 1) {
			t.Fatalf("log call %d: sync %v; every batch must be one write then one sync", calls, op.sync)
		}
		calls++
	}
	states, held := crashStates(ops)
	heldRuns, heldMax := 0, 0
	for i, state := range states {
		if !bytes.HasPrefix(full, state) {
			t.Fatalf("state %d (%d bytes) is not a prefix of the uninterrupted file", i, len(state))
		}
		// Loading keeps the state's complete lines: the header and the
		// entries of points 0 to k-1.
		kept := state[:bytes.LastIndexByte(state, '\n')+1]
		k := max(bytes.Count(kept, []byte{'\n'})-1, 0)
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		if err := os.WriteFile(path, state, 0o644); err != nil {
			t.Fatal(err)
		}
		done, err := reloadCheckpoint(path, points)
		if loaded, _ := os.ReadFile(path); err != nil || len(done) != k || !bytes.Equal(loaded, kept) {
			t.Fatalf("state %d (%d bytes): loads %d points to %d bytes (err %v), want %d points in its %d bytes of complete lines", i, len(state), len(done), len(loaded), err, k, len(kept))
		}
		got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
		if err != nil {
			t.Fatalf("state %d (%d bytes): resume: %v", i, len(state), err)
		}
		resultsEqual(t, "state resume", got, want)
		rerun := 0
		for _, p := range points[k:] {
			rerun += p.Rounds
		}
		if stats.RoundsExecuted != rerun {
			t.Fatalf("state %d (%d bytes): resume executed %d rounds, want %d (points %d on)", i, len(state), stats.RoundsExecuted, rerun, k)
		}
		if final, err := os.ReadFile(path); err != nil || !bytes.Equal(final, full) {
			t.Fatalf("state %d (%d bytes): resumed file differs from the uninterrupted one (err %v)", i, len(state), err)
		}
		heldRuns += held[i]
		heldMax = max(heldMax, held[i])
	}
	t.Logf("%d points, %d log calls, %d crash states; points re-run because they were held: %d in all, at most %d in one state", len(points), calls, len(states), heldRuns, heldMax)
}
