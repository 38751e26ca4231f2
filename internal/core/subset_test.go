package core

import (
	"errors"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"tocttou/internal/fs"
	"tocttou/internal/machine"
)

func TestRunSweepSubsetBitIdentical(t *testing.T) {
	points := checkpointTestPoints()
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	// Carve the grid into uneven, out-of-order leases like the fleet
	// scheduler would, and reassemble: the union must be bit-identical
	// to the full-grid run, and every hook must fire with the caller's
	// original indices.
	leases := [][]int{{4, 0}, {2}, {5, 1, 3}}
	got := make([]CampaignResult, len(points))
	var mu sync.Mutex
	hooked := make(map[int]CampaignResult)
	for _, lease := range leases {
		res, _, err := RunSweepSubset(points, lease, SweepOptions{
			OnPointDone: func(p int, r CampaignResult) {
				mu.Lock()
				hooked[p] = r
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("subset %v: %v", lease, err)
		}
		if len(res) != len(lease) {
			t.Fatalf("subset %v returned %d results", lease, len(res))
		}
		for k, idx := range lease {
			got[idx] = res[k]
		}
	}
	resultsEqual(t, "subset union", got, want)

	var hookIdx []int
	for p, r := range hooked {
		hookIdx = append(hookIdx, p)
		if r != want[p] {
			t.Errorf("OnPointDone for point %d diverged from the full-grid result", p)
		}
	}
	sort.Ints(hookIdx)
	for i, p := range hookIdx {
		if p != i {
			t.Fatalf("OnPointDone indices = %v, want the original grid coordinates 0..%d", hookIdx, len(points)-1)
		}
	}
}

func TestRunSweepSubsetValidation(t *testing.T) {
	points := checkpointTestPoints()
	if res, _, err := RunSweepSubset(points, nil, SweepOptions{}); err != nil || res != nil {
		t.Errorf("empty lease: res=%v err=%v, want nil/nil", res, err)
	}
	cases := []struct {
		name    string
		indices []int
		want    string
	}{
		{"past end", []int{0, len(points)}, "out of range"},
		{"negative", []int{-1}, "out of range"},
		{"duplicate", []int{1, 3, 1}, "selected twice"},
	}
	for _, tc := range cases {
		_, _, err := RunSweepSubset(points, tc.indices, SweepOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestRunSweepSubsetErrorRemapsIndices(t *testing.T) {
	bad := viSc(machine.SMP2(), 4<<10, 91501, false)
	bad.SuccessCheck = func(f *fs.FS, p Paths, attackerUID int) bool {
		panic("boom: synthetic subset failure")
	}
	points := []SweepPoint{
		{Scenario: viSc(machine.Uniprocessor(), 4<<10, 91503, false), Rounds: 20},
		{Scenario: viSc(machine.SMP2(), 4<<10, 91505, false), Rounds: 20},
		{Scenario: bad, Rounds: 20},
		{Scenario: viSc(machine.SMP2(), 8<<10, 91507, false), Rounds: 20},
	}
	_, _, err := RunSweepSubset(points, []int{3, 2}, SweepOptions{})
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if se.Point != 2 {
		t.Errorf("SweepError.Point = %d, want the original grid index 2", se.Point)
	}
	if want := bad.Seed + int64(se.Round+1)*SeedStride; se.Seed != want {
		t.Errorf("seed = %d, want %d", se.Seed, want)
	}
}

func TestPointFingerprintMatchesSweepRecord(t *testing.T) {
	points := checkpointTestPoints()
	seen := make(map[uint64]int)
	for i, p := range points {
		fp := PointFingerprint(p)
		if prev, dup := seen[fp]; dup {
			t.Errorf("points %d and %d share fingerprint %016x despite distinct configs", prev, i, fp)
		}
		seen[fp] = i
	}
	p, q := points[0], points[0]
	if PointFingerprint(p) != PointFingerprint(q) {
		t.Error("identical points fingerprint differently")
	}
	q.Scenario.Seed++
	if PointFingerprint(p) == PointFingerprint(q) {
		t.Error("seed change did not change the point fingerprint")
	}
	q = points[0]
	q.Rounds++
	if PointFingerprint(p) == PointFingerprint(q) {
		t.Error("budget change did not change the point fingerprint")
	}
}

func TestCheckpointStoreInteropWithSweepRunner(t *testing.T) {
	points := checkpointTestPoints()
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	// Store → runner: lease-style subset results flushed through the
	// exported store must restore under RunSweepPointsCheckpoint without
	// re-simulation, merging bit-identically. Only the run of points 0,
	// 1, 2, … the file begins with restores; point 4 re-runs.
	path := filepath.Join(t.TempDir(), "store.ckpt")
	cp, err := OpenCheckpoint(path, points, AdaptiveStop{})
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	if n := len(cp.Restored()); n != 0 {
		t.Fatalf("fresh store restored %d points", n)
	}
	flushed := []int{0, 1, 4}
	for _, idx := range flushed {
		res, _, err := RunSweepSubset(points, []int{idx}, SweepOptions{})
		if err != nil {
			t.Fatalf("subset point %d: %v", idx, err)
		}
		if err := cp.Flush(idx, res[0]); err != nil {
			t.Fatalf("Flush(%d): %v", idx, err)
		}
	}
	got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("runner resume from store-written file: %v", err)
	}
	resultsEqual(t, "store→runner", got, want)
	total := 0
	for _, p := range points {
		total += p.Rounds
	}
	if want := total - roundsOf(points, 0, 1); stats.RoundsExecuted != want {
		t.Errorf("resume executed %d of %d rounds, want %d: points 0 and 1 must not re-run", stats.RoundsExecuted, total, want)
	}

	// Runner → store: a file the checkpointed runner wrote opens in the
	// store with the same completions, and finishing the remainder
	// through Flush yields a file the runner restores in full.
	runnerPath := filepath.Join(t.TempDir(), "runner.ckpt")
	_, _, err = RunSweepPointsCheckpoint(points, stopAfter(points, 2), runnerPath)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("simulated crash err = %v, want ErrSweepInterrupted", err)
	}
	cp2, err := OpenCheckpoint(runnerPath, points, AdaptiveStop{})
	if err != nil {
		t.Fatalf("OpenCheckpoint on runner-written file: %v", err)
	}
	restored := cp2.Restored()
	if len(restored) < 2 {
		t.Fatalf("restored %d points, want >= 2", len(restored))
	}
	for i, r := range restored {
		if r != want[i] {
			t.Errorf("restored point %d diverged from the reference", i)
		}
	}
	for i := len(restored); i < len(points); i++ {
		res, _, err := RunSweepSubset(points, []int{i}, SweepOptions{})
		if err != nil {
			t.Fatalf("subset point %d: %v", i, err)
		}
		if err := cp2.Flush(i, res[0]); err != nil {
			t.Fatalf("Flush(%d): %v", i, err)
		}
	}
	got2, stats2, err := RunSweepPointsCheckpoint(points, SweepOptions{}, runnerPath)
	if err != nil {
		t.Fatalf("runner rerun over completed store file: %v", err)
	}
	if stats2.RoundsExecuted != 0 {
		t.Errorf("completed file still executed %d rounds", stats2.RoundsExecuted)
	}
	resultsEqual(t, "runner→store→runner", got2, want)
}

func TestOpenCheckpointRejectsMismatchAndBadFlush(t *testing.T) {
	points := checkpointTestPoints()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := OpenCheckpoint(path, points, AdaptiveStop{})
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	res, _, err := RunSweepSubset(points, []int{0}, SweepOptions{})
	if err != nil {
		t.Fatalf("subset: %v", err)
	}
	if err := cp.Flush(0, res[0]); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := cp.Flush(len(points), res[0]); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range flush err = %v", err)
	}

	mutated := checkpointTestPoints()
	mutated[0].Scenario.Seed++
	if _, err := OpenCheckpoint(path, mutated, AdaptiveStop{}); err == nil ||
		!strings.Contains(err.Error(), "different sweep configuration") {
		t.Errorf("mismatched open err = %v, want a fingerprint rejection", err)
	}
	if _, err := OpenCheckpoint("", points, AdaptiveStop{}); err == nil {
		t.Error("empty path accepted")
	}
}
