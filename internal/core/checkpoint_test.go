package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tocttou/internal/machine"
)

// checkpointTestPoints mixes plain, traced, and faulty scenarios so the
// restored results exercise every CampaignResult field the JSON encoding
// must carry (Welford summaries, kernel stats, fault counters).
func checkpointTestPoints() []SweepPoint {
	return []SweepPoint{
		{Scenario: viSc(machine.Uniprocessor(), 100<<10, 95001, false), Rounds: 30},
		{Scenario: viSc(machine.SMP2(), 100<<10, 95003, true), Rounds: 30},
		{Scenario: faultViSc(95005), Rounds: 30},
		{Scenario: viSc(machine.SMP2(), 1, 95007, true), Rounds: 30},
		{Scenario: faultViSc(95009), Rounds: 30},
		{Scenario: viSc(machine.MultiCore(), 50<<10, 95011, false), Rounds: 30},
	}
}

func resultsEqual(t *testing.T, label string, got, want []CampaignResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d diverged:\ngot:  %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	points := checkpointTestPoints()
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Crash mid-sweep: stop deliberately after three committed points.
	crash := SweepOptions{stopAfterPoints: 3}
	_, _, err = RunSweepPointsCheckpoint(points, crash, path)
	if !errors.Is(err, ErrSweepInterrupted) {
		t.Fatalf("interrupted sweep err = %v, want ErrSweepInterrupted", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written before the crash: %v", err)
	}

	// Resume: only the missing points run, and the merged results are
	// bit-identical to the uninterrupted sweep.
	got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	resultsEqual(t, "resume", got, want)
	total := 0
	for _, p := range points {
		total += p.Rounds
	}
	if stats.RoundsExecuted >= total {
		t.Errorf("resume executed %d of %d rounds; restored points must not re-run", stats.RoundsExecuted, total)
	}
	if stats.RoundsExecuted == 0 {
		t.Error("resume executed nothing; the crash should have left points unfinished")
	}

	// A third run restores everything and simulates nothing.
	again, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("completed-checkpoint rerun: %v", err)
	}
	resultsEqual(t, "rerun", again, want)
	if stats.RoundsExecuted != 0 {
		t.Errorf("completed checkpoint still executed %d rounds", stats.RoundsExecuted)
	}
}

func TestCheckpointEmptyPathIsPlainSweep(t *testing.T) {
	points := checkpointTestPoints()[:2]
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, "")
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "empty path", got, want)
}

func TestCheckpointMismatchedSweepRejected(t *testing.T) {
	points := checkpointTestPoints()[:2]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path); err != nil {
		t.Fatalf("initial sweep: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(ps []SweepPoint)
	}{
		{"file size", func(ps []SweepPoint) { ps[0].Scenario.FileSize += 1024 }},
		{"seed", func(ps []SweepPoint) { ps[1].Scenario.Seed++ }},
		{"budget", func(ps []SweepPoint) { ps[0].Rounds++ }},
		{"fault plan", func(ps []SweepPoint) { ps[1].Scenario.Faults.FSRate = 0.5 }},
		{"watchdog", func(ps []SweepPoint) { ps[0].Scenario.Watchdog = 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			changed := append([]SweepPoint(nil), points...)
			c.mutate(changed)
			_, _, err := RunSweepPointsCheckpoint(changed, SweepOptions{}, path)
			if err == nil || !strings.Contains(err.Error(), "different sweep configuration") {
				t.Errorf("mismatched resume err = %v, want configuration rejection", err)
			}
		})
	}

	// Point-count changes are rejected too.
	_, _, err := RunSweepPointsCheckpoint(points[:1], SweepOptions{}, path)
	if err == nil || !strings.Contains(err.Error(), "different sweep configuration") {
		t.Errorf("shorter resume err = %v, want configuration rejection", err)
	}
}

func TestCheckpointCorruptFileRejected(t *testing.T) {
	points := checkpointTestPoints()[:1]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

func TestCheckpointUnwritablePathFailsRun(t *testing.T) {
	// A checkpoint that cannot be flushed must fail the run rather than
	// silently dropping crash safety.
	points := checkpointTestPoints()[:1]
	path := filepath.Join(t.TempDir(), "no-such-dir", "sweep.ckpt")
	_, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("unwritable checkpoint err = %v, want flush failure", err)
	}
}

// writeV1Checkpoint hand-writes a version-1 checkpoint: a single JSON
// object holding every entry, the layout written before format 2.
func writeV1Checkpoint(t *testing.T, path string, points []SweepPoint, done []checkpointEntry) {
	t.Helper()
	data, err := json.Marshal(map[string]any{
		"version":     1,
		"fingerprint": sweepFingerprint(points, AdaptiveStop{}),
		"points":      len(points),
		"done":        done,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkpointLines splits a checkpoint file into its newline-terminated
// lines (a torn final fragment is not a line).
func checkpointLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if last := lines[len(lines)-1]; !bytes.HasSuffix(last, []byte{'\n'}) {
		lines = lines[:len(lines)-1]
	}
	return lines
}

func roundsOf(points []SweepPoint, idx ...int) int {
	n := 0
	for _, i := range idx {
		n += points[i].Rounds
	}
	return n
}

func TestCheckpointTornTailResumesBitIdentical(t *testing.T) {
	points := checkpointTestPoints()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	want, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("checkpointed sweep: %v", err)
	}
	lines := checkpointLines(t, path)
	if len(lines) != 1+len(points) {
		t.Fatalf("complete checkpoint has %d lines, want header + %d entries", len(lines), len(points))
	}
	// Crash mid-append: the last entry loses its second half and its
	// newline.
	last := lines[len(lines)-1]
	var torn checkpointEntry
	if err := json.Unmarshal(last, &torn); err != nil {
		t.Fatal(err)
	}
	data := bytes.Join(lines[:len(lines)-1], nil)
	data = append(data, last[:len(last)/2]...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("resume over a torn tail: %v", err)
	}
	resultsEqual(t, "torn-tail resume", got, want)
	if want := roundsOf(points, torn.Point); stats.RoundsExecuted != want {
		t.Errorf("resume executed %d rounds, want %d (only torn point %d re-runs)", stats.RoundsExecuted, want, torn.Point)
	}
	// The first flush rewrote the file whole: no fragment survives.
	if got := checkpointLines(t, path); len(got) != 1+len(points) {
		t.Errorf("resumed checkpoint has %d lines, want %d", len(got), 1+len(points))
	}
	if done, err := loadCheckpoint(path, sweepFingerprint(points, AdaptiveStop{}), len(points)); err != nil || len(done) != len(points) {
		t.Errorf("resumed checkpoint reloads %d points (err %v), want %d", len(done), err, len(points))
	}
}

func TestCheckpointVersion1ResumesAndUpgrades(t *testing.T) {
	points := checkpointTestPoints()
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	writeV1Checkpoint(t, path, points, []checkpointEntry{
		{Point: 4, Result: want[4]}, {Point: 0, Result: want[0]}, {Point: 2, Result: want[2]},
	})

	got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("resume from version 1: %v", err)
	}
	resultsEqual(t, "version-1 resume", got, want)
	if want := roundsOf(points, 1, 3, 5); stats.RoundsExecuted != want {
		t.Errorf("resume executed %d rounds, want %d (restored points must not re-run)", stats.RoundsExecuted, want)
	}
	lines := checkpointLines(t, path)
	var h checkpointHeader
	if err := json.Unmarshal(lines[0], &h); err != nil || h.Version != 2 {
		t.Fatalf("header after the first flush = %s (err %v), want version 2", lines[0], err)
	}
	if len(lines) != 1+len(points) {
		t.Errorf("upgraded checkpoint has %d lines, want header + %d entries", len(lines), len(points))
	}
	again, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
	if err != nil {
		t.Fatalf("rerun over the upgraded file: %v", err)
	}
	resultsEqual(t, "upgraded rerun", again, want)
	if stats.RoundsExecuted != 0 {
		t.Errorf("complete upgraded checkpoint still executed %d rounds", stats.RoundsExecuted)
	}
}

func TestCheckpointCorruptCompleteLineRejected(t *testing.T) {
	points := checkpointTestPoints()[:3]
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path); err != nil {
		t.Fatalf("checkpointed sweep: %v", err)
	}
	lines := checkpointLines(t, path)
	for name, middle := range map[string]string{
		"garbage":       "{\"point\":1,\"res\n",
		"missing field": "{\"point\":1}\n",
		"blank":         "\n",
	} {
		t.Run(name, func(t *testing.T) {
			data := bytes.Join([][]byte{lines[0], lines[1], []byte(middle), lines[3]}, nil)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
			if err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Errorf("corrupt middle line: err = %v, want a corruption rejection", err)
			}
		})
	}
}

// TestCheckpointFlushAppendsOneLine pins the O(1) commit: after the
// first flush, which rewrites the file, every flush adds exactly its own
// entry line and leaves the bytes before it untouched.
func TestCheckpointFlushAppendsOneLine(t *testing.T) {
	points := checkpointTestPoints()
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	writeV1Checkpoint(t, path, points, []checkpointEntry{{Point: 5, Result: want[5]}})
	store, err := OpenCheckpoint(path, points, AdaptiveStop{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(0, want[0]); err != nil {
		t.Fatal(err)
	}
	if lines := checkpointLines(t, path); len(lines) != 3 {
		t.Fatalf("first flush wrote %d lines, want header + restored + new", len(lines))
	}
	for p := 1; p < 5; p++ {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Flush(p, want[p]); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		line, err := appendEntry(nil, p, want[p])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, append(before, line...)) {
			t.Fatalf("flush of point %d: file grew by %d bytes, want exactly its %d-byte entry line", p, len(after)-len(before), len(line))
		}
	}
	done, err := loadCheckpoint(path, sweepFingerprint(points, AdaptiveStop{}), len(points))
	if err != nil {
		t.Fatal(err)
	}
	for p := range points {
		if done[p] != want[p] {
			t.Errorf("point %d reloaded as %+v, want %+v", p, done[p], want[p])
		}
	}
}
