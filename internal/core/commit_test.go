package core

// The group-commit path (SweepResume.Commit and its committer): batching
// may change when a point is written, never what is written or in which
// order its durability steps happen.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tocttou/internal/machine"
)

// commitGrid is a grid of distinct points and hand-made results: the
// commit path never looks inside a result.
func commitGrid(n int) ([]SweepPoint, []CampaignResult) {
	points := make([]SweepPoint, n)
	results := make([]CampaignResult, n)
	for i := range points {
		points[i] = SweepPoint{Scenario: viSc(machine.SMP2(), int64(i+1)<<10, int64(5000+i), false), Rounds: 3}
		results[i].Rounds = 3
		results[i].Successes = i % 4
		results[i].Metrics.WindowUs.Add(float64(i) + 0.25)
	}
	return points, results
}

// openStore opens a checkpoint store for points at path.
func openStore(t *testing.T, path string, points []SweepPoint) *CheckpointStore {
	t.Helper()
	store, err := OpenCheckpoint(path, points, AdaptiveStop{})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestCommitBatchesWriteCheckpointBeforeDone commits every point of a
// grid from concurrent goroutines. Each point must reach done exactly
// once, only after its checkpoint line is in the file, and every line
// must be byte-identical to the line CheckpointStore.Flush writes.
func TestCommitBatchesWriteCheckpointBeforeDone(t *testing.T) {
	const n = 200
	points, results := commitGrid(n)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	seen := make(map[int]int)
	batches := 0
	rs, err := ResumeSweep(openStore(t, path, points), points, func(batch []PointResult) error {
		batches++
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, pr := range batch {
			seen[pr.Point]++
			line, err := json.Marshal(PointResult{Point: pr.Point, Result: pr.Result})
			if err != nil {
				return err
			}
			if !bytes.Contains(data, append(line, '\n')) {
				t.Errorf("point %d reached done before its checkpoint line was written", pr.Point)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Pending) != n {
		t.Fatalf("pending = %d, want %d", len(rs.Pending), n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := g; p < n; p += 4 {
				if err := rs.Commit(p, results[p]); err != nil {
					t.Errorf("commit %d: %v", p, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if seen[p] != 1 {
			t.Errorf("point %d reached done %d times, want once", p, seen[p])
		}
	}
	t.Logf("%d points in %d batches", n, batches)

	// The same points flushed one at a time produce the same entry lines.
	ref := filepath.Join(t.TempDir(), "ref.ckpt")
	store, err := OpenCheckpoint(ref, points, AdaptiveStop{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if err := store.Flush(p, results[p]); err != nil {
			t.Fatal(err)
		}
	}
	lines := make(map[string]bool)
	for _, l := range checkpointLines(t, ref) {
		lines[string(l)] = true
	}
	got := checkpointLines(t, path)
	if len(got) != n+1 {
		t.Fatalf("checkpoint holds %d lines, want header + %d", len(got), n)
	}
	for _, l := range got {
		if !lines[string(l)] {
			t.Errorf("batched line %q differs from every per-point Flush line", l)
		}
	}
	done, err := reloadCheckpoint(path, points)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if done[p] != results[p] {
			t.Errorf("point %d reloaded as %+v, want %+v", p, done[p], results[p])
		}
	}
}

// TestCommitBatchErrorIsSticky fails the first batch's done: every later
// Commit and Drain return that error, and no later batch reaches done.
func TestCommitBatchErrorIsSticky(t *testing.T) {
	points, results := commitGrid(8)
	boom := errors.New("done failed")
	calls := 0
	rs, err := ResumeSweep(openStore(t, filepath.Join(t.TempDir(), "sweep.ckpt"), points), points, func([]PointResult) error {
		calls++
		return boom
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Commit(0, results[0]); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	// Drain waits out the failing batch; from then on the error sticks.
	if err := rs.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want the done error", err)
	}
	if err := rs.Commit(1, results[1]); !errors.Is(err, boom) {
		t.Errorf("Commit after a failed batch = %v, want the done error", err)
	}
	if err := rs.Drain(); !errors.Is(err, boom) {
		t.Errorf("second Drain = %v, want the done error", err)
	}
	if calls != 1 {
		t.Errorf("done called %d times, want once", calls)
	}
}

// TestCommitAfterDrainFails: a drained resume takes no more points, and
// a drain with nothing committed starts no committer.
func TestCommitAfterDrainFails(t *testing.T) {
	points, results := commitGrid(4)
	rs, err := ResumeSweep(openStore(t, filepath.Join(t.TempDir(), "sweep.ckpt"), points), points, func([]PointResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rs.exited != nil {
		t.Error("Drain with nothing committed started a committer")
	}
	if err := rs.Commit(0, results[0]); err == nil {
		t.Error("Commit after Drain succeeded")
	}
	if err := rs.Commit(len(points), results[0]); err == nil {
		t.Error("Commit of an out-of-range point succeeded")
	}
}
