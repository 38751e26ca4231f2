package core

import (
	"errors"
	"path/filepath"
	"testing"

	"tocttou/internal/machine"
)

// These tests pin the -checkpoint × memoization seam: a memoized point
// must still be flushed to the checkpoint file, a resumed sweep must not
// re-simulate (or double-count) configurations the first run already
// recorded, and SweepError.Point must always name the caller's grid
// coordinate even when earlier points were memoized or restored.

func TestCheckpointFlushesMemoizedPoints(t *testing.T) {
	a := viSc(machine.Uniprocessor(), 60<<10, 96001, false)
	b := viSc(machine.SMP2(), 40<<10, 96003, true)
	points := []SweepPoint{
		{Scenario: a, Rounds: 25},
		{Scenario: b, Rounds: 20},
		{Scenario: a, Rounds: 25},
		{Scenario: b, Rounds: 20},
		{Scenario: a, Rounds: 25},
	}
	want, _, err := runSweepPointsDirect(points, SweepOptions{})
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("checkpointed sweep: %v", err)
	}
	resultsEqual(t, "checkpointed", got, want)
	if stats.PointsMemoized != 3 {
		t.Errorf("PointsMemoized = %d, want 3 (checkpointing must not disable memoization)", stats.PointsMemoized)
	}
	if stats.RoundsExecuted != 25+20 {
		t.Errorf("RoundsExecuted = %d, want %d (uniques only)", stats.RoundsExecuted, 25+20)
	}

	// Every point — including the memoized duplicates — must be in the
	// file, so a resume after any crash restores them instead of
	// re-running or miscounting them.
	done, err := reloadCheckpoint(path, points)
	if err != nil {
		t.Fatalf("reading checkpoint back: %v", err)
	}
	if len(done) != len(points) {
		t.Fatalf("checkpoint holds %d of %d points; memoized duplicates must be flushed too", len(done), len(points))
	}
	for i := range points {
		if done[i] != want[i] {
			t.Errorf("checkpointed point %d diverged:\ngot:  %+v\nwant: %+v", i, done[i], want[i])
		}
	}
}

func TestCheckpointMemoResumeBitIdentical(t *testing.T) {
	a := viSc(machine.Uniprocessor(), 80<<10, 97001, false)
	b := faultViSc(97003)
	c := viSc(machine.SMP2(), 30<<10, 97005, true)
	points := []SweepPoint{
		{Scenario: a, Rounds: 30},
		{Scenario: b, Rounds: 30},
		{Scenario: a, Rounds: 30},
		{Scenario: c, Rounds: 30},
		{Scenario: b, Rounds: 30},
		{Scenario: a, Rounds: 30},
	}
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	// Crash after two committed points. stopAfterPoints disables
	// memoization, so the interrupted run executed its points directly —
	// the resume then faces pending duplicates of already-restored work.
	_, _, err = RunSweepPointsCheckpoint(points, SweepOptions{stopAfterPoints: 2}, path)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("interrupted sweep err = %v, want ErrSweepInterrupted", err)
	}

	// Completion order is nondeterministic, so derive the resume's
	// expected workload from what the crash actually left behind: one
	// execution per distinct configuration neither restored nor already
	// claimed by an earlier pending duplicate.
	done, err := reloadCheckpoint(path, points)
	if err != nil {
		t.Fatalf("reading crashed checkpoint: %v", err)
	}
	restored := make(map[string]bool)
	for i := range done {
		k, ok := PointKey(points[i])
		if !ok {
			t.Fatalf("point %d unexpectedly not memoizable", i)
		}
		restored[k] = true
	}
	execRounds, execPoints, pending := 0, 0, 0
	claimed := make(map[string]bool)
	for i, p := range points {
		if _, ok := done[i]; ok {
			continue
		}
		pending++
		k, _ := PointKey(p)
		if restored[k] || claimed[k] {
			continue
		}
		claimed[k] = true
		execPoints++
		execRounds += p.Rounds
	}

	got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	resultsEqual(t, "resume", got, want)
	if stats.RoundsExecuted != execRounds {
		t.Errorf("resume executed %d rounds, want exactly %d (no re-simulation, no double-counting)", stats.RoundsExecuted, execRounds)
	}
	if stats.PointsMemoized != pending-execPoints {
		t.Errorf("resume PointsMemoized = %d, want %d (restored copies + in-process dedupe)", stats.PointsMemoized, pending-execPoints)
	}

	// The finished file holds every point bit-identically.
	doneAll, err := reloadCheckpoint(path, points)
	if err != nil {
		t.Fatalf("reading finished checkpoint: %v", err)
	}
	if len(doneAll) != len(points) {
		t.Fatalf("finished checkpoint holds %d of %d points", len(doneAll), len(points))
	}
	for i := range points {
		if doneAll[i] != want[i] {
			t.Errorf("finished checkpoint point %d diverged from reference", i)
		}
	}
}

func TestCheckpointResumeRemapsErrorPoint(t *testing.T) {
	a := viSc(machine.SMP2(), 4<<10, 98001, false)
	points := []SweepPoint{
		{Scenario: a, Rounds: 10},
		{Scenario: a, Rounds: 10},
		{Scenario: failingScenario(98003), Rounds: 10},
		{Scenario: a, Rounds: 10},
	}

	aRes, _, err := RunSweepPoints(points[:1], SweepOptions{})
	if err != nil {
		t.Fatalf("healthy point: %v", err)
	}
	// Hand-write a checkpoint holding only point 0, as if the first run
	// crashed right after committing it. On resume, points 1 and 3 become
	// restored copies and only the failing point 2 actually runs — the
	// reported index must still be the caller's coordinate 2, not the
	// dense post-skip index 0.
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	writeCheckpoint(t, path, points, []PointResult{{Point: 0, Result: aRes[0]}})

	_, _, err = RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err == nil {
		t.Fatal("resume over a failing point succeeded, want error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SweepError", err)
	}
	if se.Point != 2 {
		t.Errorf("failing point = %d, want caller coordinate 2 (points 1 and 3 were restored/memoized)", se.Point)
	}
}

func TestCheckpointFreshRunRemapsErrorPointUnderMemo(t *testing.T) {
	a := viSc(machine.SMP2(), 4<<10, 98011, false)
	points := []SweepPoint{
		{Scenario: a, Rounds: 10},
		{Scenario: a, Rounds: 10},
		{Scenario: failingScenario(98013), Rounds: 10},
		{Scenario: a, Rounds: 10},
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	_, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err == nil {
		t.Fatal("fresh checkpointed run over a failing point succeeded, want error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SweepError", err)
	}
	if se.Point != 2 {
		t.Errorf("failing point = %d, want caller coordinate 2 despite memoized duplicates", se.Point)
	}
}
