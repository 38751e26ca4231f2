package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// writeCheckpoint commits entries through a fresh store, as if a first
// run crashed right after committing them.
func writeCheckpoint(t *testing.T, path string, points []SweepPoint, done []PointResult) {
	t.Helper()
	store, err := OpenCheckpoint(path, points, AdaptiveStop{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range done {
		if err := store.Flush(e.Point, e.Result); err != nil {
			t.Fatal(err)
		}
	}
}

// reloadCheckpoint opens the checkpoint at path as a resume would and
// returns the points it restores.
func reloadCheckpoint(path string, points []SweepPoint) (map[int]CampaignResult, error) {
	store, err := OpenCheckpoint(path, points, AdaptiveStop{})
	if err != nil {
		return nil, err
	}
	return store.Restored(), store.Close()
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
	var torn PointResult
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
	// Opening truncated the fragment: the resumed file is whole lines.
	if got := checkpointLines(t, path); len(got) != 1+len(points) {
		t.Errorf("resumed checkpoint has %d lines, want %d", len(got), 1+len(points))
	}
	if done, err := reloadCheckpoint(path, points); err != nil || len(done) != len(points) {
		t.Errorf("resumed checkpoint reloads %d points (err %v), want %d", len(done), err, len(points))
	}
}

// TestCheckpointPreKeyVersionsRejected pins the format-3 cut: files of
// versions 1 and 2 carry a fingerprint that left program parameters out
// of a point's identity, so even one whose fingerprint happens to match
// is rejected by version, untouched, with a message saying what to do.
func TestCheckpointPreKeyVersionsRejected(t *testing.T) {
	points := checkpointTestPoints()[:2]
	fp := SweepFingerprint(points, AdaptiveStop{})
	for _, version := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		data := []byte(fmt.Sprintf("{\"version\":%d,\"fingerprint\":%d,\"points\":%d}\n", version, fp, len(points)))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
		want := fmt.Sprintf("checkpoint version %d predates point keys (want 3); delete it to start over", version)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: err = %v, want %q", version, err, want)
		}
		if _, err := OpenCheckpoint(path, points, AdaptiveStop{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: OpenCheckpoint err = %v, want %q", version, err, want)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
			t.Errorf("version %d: rejected file was rewritten", version)
		}
	}
}

// TestCheckpointCorruptCompleteLineRejected garbles a complete entry
// line in the middle of a finished checkpoint. The line is rejected as
// an entry: it ends the file's valid run, which the resume truncates,
// so exactly the points of the truncated lines re-run, the results are
// bit-identical, and the resumed file reloads every point.
func TestCheckpointCorruptCompleteLineRejected(t *testing.T) {
	points := checkpointTestPoints()[:3]
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, _, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path); err != nil {
		t.Fatalf("checkpointed sweep: %v", err)
	}
	lines := checkpointLines(t, path)
	var kept PointResult
	if err := json.Unmarshal(lines[1], &kept); err != nil {
		t.Fatal(err)
	}
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
			got, stats, err := RunSweepPointsCheckpoint(points, SweepOptions{}, path)
			if err != nil {
				t.Fatalf("resume over a corrupt middle line: %v", err)
			}
			resultsEqual(t, "resume", got, want)
			var rerun []int
			for p := range points {
				if p != kept.Point {
					rerun = append(rerun, p)
				}
			}
			if want := roundsOf(points, rerun...); stats.RoundsExecuted != want {
				t.Errorf("resume executed %d rounds, want %d (points %v, cut with the corrupt line and the one after it)", stats.RoundsExecuted, want, rerun)
			}
			done, err := reloadCheckpoint(path, points)
			if err != nil || len(done) != len(points) {
				t.Fatalf("resumed checkpoint reloads %d points (err %v), want %d", len(done), err, len(points))
			}
			for p := range points {
				if done[p] != want[p] {
					t.Errorf("point %d reloaded as %+v, want %+v", p, done[p], want[p])
				}
			}
		})
	}
}

// TestCheckpointFlushAppendsOneLine pins the O(1) commit: every flush
// into an existing file adds exactly its own entry line and leaves the
// bytes before it untouched.
func TestCheckpointFlushAppendsOneLine(t *testing.T) {
	points := checkpointTestPoints()
	want, _, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	writeCheckpoint(t, path, points, []PointResult{{Point: 5, Result: want[5]}})
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
		line, err := json.Marshal(PointResult{Point: p, Result: want[p]})
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, '\n')
		if !bytes.Equal(after, append(before, line...)) {
			t.Fatalf("flush of point %d: file grew by %d bytes, want exactly its %d-byte entry line", p, len(after)-len(before), len(line))
		}
	}
	done, err := reloadCheckpoint(path, points)
	if err != nil {
		t.Fatal(err)
	}
	for p := range points {
		if done[p] != want[p] {
			t.Errorf("point %d reloaded as %+v, want %+v", p, done[p], want[p])
		}
	}
}

// TestCheckpointResumeRemapsErrorPoint pins that a resumed sweep reports
// a failing round at the caller's grid coordinate. Point 0 is restored,
// so the resume runs points 1-3 as a subset and point 2 fails: the
// reported index must be 2, not the dense subset index 1.
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
	// crashed right after committing it.
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
		t.Errorf("failing point = %d, want caller coordinate 2 (point 0 was restored)", se.Point)
	}
}

// TestCheckpointFreshRunReportsErrorPoint is the same check for a
// checkpointed run that starts from an empty file.
func TestCheckpointFreshRunReportsErrorPoint(t *testing.T) {
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
		t.Errorf("failing point = %d, want caller coordinate 2", se.Point)
	}
}
