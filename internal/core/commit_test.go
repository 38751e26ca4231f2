package core

// The group-commit path (SweepResume.Commit and its committer): batching
// and finishing order may change when a point is written, never what is
// written, in which order points are written, or in which order a
// point's durability steps happen.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
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
// grid from concurrent goroutines, so points finish out of order. Each
// point must reach done exactly once, in ascending order, only after
// its checkpoint line is in the file, and the file must be
// byte-identical to the one CheckpointStore.Flush writes point by point
// in index order.
func TestCommitBatchesWriteCheckpointBeforeDone(t *testing.T) {
	const n = 200
	points, results := commitGrid(n)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	var seen []int
	batches := 0
	rs, err := ResumeSweep(openStore(t, path, points), points, func(batch []PointResult) error {
		batches++
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, pr := range batch {
			seen = append(seen, pr.Point)
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
	for p := range n {
		if p >= len(seen) || seen[p] != p {
			t.Fatalf("done saw points %v, want 0 to %d in order", seen, n-1)
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
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := os.ReadFile(ref); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("batched checkpoint differs from the per-point Flush file (err %v)", err)
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

// TestCommitHoldsUntilWatermark resumes a file holding point 0 and
// commits out of order. A point waits until every lower one is
// restored, committed or skipped; a restored, repeated or skipped point
// is refused; Skip writes nothing; and Drain drops a point held above an
// unfinished one, which a resume then runs again.
func TestCommitHoldsUntilWatermark(t *testing.T) {
	points, results := commitGrid(8)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	writeCheckpoint(t, path, points, []PointResult{{0, results[0]}})
	var seen []int
	rs, err := ResumeSweep(openStore(t, path, points), points, func(batch []PointResult) error {
		for _, pr := range batch {
			seen = append(seen, pr.Point)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		skip  bool
		point int
		ok    bool
	}{
		{false, 0, false}, // restored
		{false, 3, true},
		{false, 2, true},
		{false, 3, false}, // held already
		{true, 4, true},
		{true, 4, false},  // skipped already
		{false, 7, true},  // held above unfinished points 5 and 6
		{false, 1, true},  // releases 1, 2, 3 and passes 4
		{false, 2, false}, // committed already
		{false, 8, false}, // out of range
	} {
		settle, name := rs.Commit, "Commit"
		if step.skip {
			settle, name = func(p int, _ CampaignResult) error { return rs.Skip(p) }, "Skip"
		}
		if err := settle(step.point, results[step.point%len(results)]); (err == nil) != step.ok {
			t.Fatalf("%s(%d) = %v, want success %v", name, step.point, err, step.ok)
		}
	}
	if err := rs.Drain(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seen, []int{0, 1, 2, 3}) {
		t.Errorf("done saw points %v, want 0 to 3", seen)
	}
	done, err := reloadCheckpoint(path, points)
	if err != nil || !slices.Equal(done, results[:4]) {
		t.Errorf("file reloads %d points (err %v), want points 0 to 3", len(done), err)
	}
	rs, err = ResumeSweep(openStore(t, path, points), points, func([]PointResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Drain()
	if !slices.Equal(rs.Pending, []int{4, 5, 6, 7}) {
		t.Errorf("resume pending %v, want 4 to 7: the skipped point and the dropped one run again", rs.Pending)
	}
}
