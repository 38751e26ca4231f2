package core

// Tests for the public sweep seams the campaign service stands on: the
// OnPointDone completion hook (exact-once, original indices, checkpoint
// replay) and graceful Interrupt-channel stops.

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"tocttou/internal/machine"
)

// completionLog records OnPointDone firings thread-safely.
type completionLog struct {
	mu   sync.Mutex
	done map[int]CampaignResult
	dups []int
}

func (l *completionLog) hook() func(int, CampaignResult) {
	l.done = make(map[int]CampaignResult)
	return func(p int, res CampaignResult) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, seen := l.done[p]; seen {
			l.dups = append(l.dups, p)
		}
		l.done[p] = res
	}
}

func (l *completionLog) check(t *testing.T, label string, want []CampaignResult) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.dups) != 0 {
		t.Fatalf("%s: OnPointDone fired more than once for points %v", label, l.dups)
	}
	if len(l.done) != len(want) {
		t.Fatalf("%s: OnPointDone fired for %d of %d points", label, len(l.done), len(want))
	}
	for i, res := range want {
		got, ok := l.done[i]
		if !ok {
			t.Fatalf("%s: point %d never reached OnPointDone", label, i)
		}
		if got != res {
			t.Fatalf("%s: point %d OnPointDone result diverged from the sweep's", label, i)
		}
	}
}

func TestOnPointDoneFiresExactlyOncePerPoint(t *testing.T) {
	// Point 2 duplicates point 0 (same scenario value, same programs):
	// each still fires once, with its own index.
	dup := viSc(machine.Uniprocessor(), 100<<10, 97001, false)
	points := []SweepPoint{
		{Scenario: dup, Rounds: 25},
		{Scenario: viSc(machine.SMP2(), 100<<10, 97003, false), Rounds: 25},
		{Scenario: dup, Rounds: 25},
		{Scenario: faultViSc(97005), Rounds: 25},
	}
	var log completionLog
	res, _, err := RunSweepPoints(points, SweepOptions{OnPointDone: log.hook()})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	log.check(t, "plain sweep", res)
}

func TestInterruptStopsSweepGracefully(t *testing.T) {
	points := checkpointTestPoints()
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Drain mid-sweep, as a SIGTERM-draining server would: point 0's last
	// round closes the interrupt channel as it commits. Closing it from
	// OnPointDone instead raced the sweep's end, because under
	// checkpointing that hook fires only after the batch's fsync, by
	// which time the workers had often claimed every round and the sweep
	// finished uninterrupted.
	interrupt := make(chan struct{})
	var once sync.Once
	var first completionLog
	opt := SweepOptions{
		Interrupt:   interrupt,
		OnPointDone: first.hook(),
		OnRound: func(p, round int, _ Round) {
			if p == 0 && round == points[0].Rounds-1 {
				once.Do(func() { close(interrupt) })
			}
		},
	}
	_, _, err = RunSweepPointsCheckpoint(points, opt, path)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("interrupted sweep err = %v, want ErrSweepInterrupted", err)
	}
	first.mu.Lock()
	committed := len(first.done)
	first.mu.Unlock()
	if committed == 0 {
		t.Fatal("interrupt fired with no completions observed")
	}
	if committed == len(points) {
		t.Skip("every point completed before the interrupt landed; nothing mid-sweep to resume")
	}

	// Resume: restored points replay through OnPointDone (ascending,
	// before simulation), the rest run — every point exactly once, and
	// the merged results bit-identical to the uninterrupted sweep.
	var resumed completionLog
	got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{OnPointDone: resumed.hook()}, path)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	resultsEqual(t, "resume after interrupt", got, want)
	resumed.check(t, "resume after interrupt", got)
	if stats.RoundsExecuted == 0 {
		t.Error("resume executed nothing; the interrupt should have left points unfinished")
	}
}

func TestInterruptAlreadyClosedCommitsNothing(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	var log completionLog
	_, stats, err := RunSweepPoints(
		[]SweepPoint{{Scenario: viSc(machine.Uniprocessor(), 100<<10, 97101, false), Rounds: 10}},
		SweepOptions{Interrupt: interrupt, OnPointDone: log.hook()},
	)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("err = %v, want ErrSweepInterrupted", err)
	}
	if stats.RoundsCommitted != 0 || len(log.done) != 0 {
		t.Fatalf("pre-closed interrupt still committed %d rounds, %d completions", stats.RoundsCommitted, len(log.done))
	}
}

func TestCheckpointOnPointDoneUsesOriginalIndices(t *testing.T) {
	// A completed checkpoint plus a fresh tail: the sub-sweep runs with
	// dense indices internally, but the hook must see grid coordinates.
	points := checkpointTestPoints()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	crash := stopAfter(points, 2)
	if _, _, err := RunSweepPointsCheckpoint(points, crash, path); !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("crash run err = %v, want ErrSweepInterrupted", err)
	}
	var log completionLog
	got, _, err := RunSweepPointsCheckpoint(points, SweepOptions{OnPointDone: log.hook()}, path)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	log.check(t, "checkpoint resume", got)
}
