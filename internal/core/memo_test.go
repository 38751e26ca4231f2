package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"tocttou/internal/fault"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
)

// These tests pin down sweep-point memoization (memo.go): duplicate
// points must yield bit-identical results while being simulated once,
// and memoization must stand down — executing everything — whenever
// per-point execution is observable or a point's identity cannot be
// captured in the key.

// memoizes reports whether RunSweepPoints would dedupe the points.
func memoizes(points []SweepPoint, opt SweepOptions) bool {
	if memoObservable(opt) {
		return false
	}
	return memoReps(points, nil, nil) != nil
}

func TestSweepMemoizationDedupesIdenticalPoints(t *testing.T) {
	a := viSc(machine.Uniprocessor(), 50<<10, 41011, false)
	b := viSc(machine.SMP2(), 20<<10, 41013, true)
	c := viSc(machine.MultiCore(), 4<<10, 41017, false)
	// Duplicate FSOps slices with distinct backing arrays must still
	// merge: the key encodes slices by value.
	a.Faults = fault.Plan{Seed: 7, FSRate: 0.02, FSOps: []fs.Op{fs.OpOpen, fs.OpWrite}}
	aDup := a
	aDup.Faults.FSOps = []fs.Op{fs.OpOpen, fs.OpWrite}

	points := []SweepPoint{
		{Scenario: a, Rounds: 30},
		{Scenario: b, Rounds: 20},
		{Scenario: aDup, Rounds: 30},
		{Scenario: c, Rounds: 25},
		{Scenario: b, Rounds: 20},
		{Scenario: a, Rounds: 30},
	}
	direct, dStats, err := runSweepPointsDirect(points, SweepOptions{})
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	memo, mStats, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("memoized sweep: %v", err)
	}
	for i := range points {
		if memo[i] != direct[i] {
			t.Errorf("point %d: memoized result diverged from direct:\n got: %+v\nwant: %+v", i, memo[i], direct[i])
		}
	}
	if mStats.PointsMemoized != 3 {
		t.Errorf("PointsMemoized = %d, want 3", mStats.PointsMemoized)
	}
	if want := 30 + 20 + 25; mStats.RoundsExecuted != want || mStats.RoundsCommitted != want {
		t.Errorf("memoized stats = %+v, want %d rounds executed and committed (uniques only)", mStats, want)
	}
	if want := 30*2 + 20*2 + 25 + 30; dStats.RoundsExecuted != want {
		t.Errorf("direct stats = %+v, want the full %d rounds executed", dStats, want)
	}
}

func TestSweepMemoizationKeySeparatesConfigs(t *testing.T) {
	base := viSc(machine.SMP2(), 20<<10, 42011, false)
	for name, mutate := range map[string]func(*SweepPoint){
		"rounds":    func(p *SweepPoint) { p.Rounds = 13 },
		"seed":      func(p *SweepPoint) { p.Scenario.Seed += 1 },
		"size":      func(p *SweepPoint) { p.Scenario.FileSize = 21 << 10 },
		"trace":     func(p *SweepPoint) { p.Scenario.Trace = true },
		"faultSeed": func(p *SweepPoint) { p.Scenario.Faults.Seed = 3 },
		"faultKill": func(p *SweepPoint) { p.Scenario.Faults.KillVictimRate = 0.1 },
		"faultOps":  func(p *SweepPoint) { p.Scenario.Faults.FSOps = []fs.Op{fs.OpOpen} },
		"coalesce":  func(p *SweepPoint) { p.Scenario.DisableCoalesce = true },
	} {
		points := []SweepPoint{
			{Scenario: base, Rounds: 12},
			{Scenario: base, Rounds: 12},
		}
		mutate(&points[1])
		if memoizes(points, SweepOptions{}) {
			t.Errorf("%s: points differing in %s were merged", name, name)
		}
	}
	// Sanity: with no mutation the same pair does merge.
	points := []SweepPoint{
		{Scenario: base, Rounds: 12},
		{Scenario: base, Rounds: 12},
	}
	if !memoizes(points, SweepOptions{}) {
		t.Fatal("identical pair was not merged")
	}
}

func TestSweepMemoizationStandsDown(t *testing.T) {
	base := viSc(machine.SMP2(), 20<<10, 43011, false)
	dup := []SweepPoint{
		{Scenario: base, Rounds: 12},
		{Scenario: base, Rounds: 12},
	}
	if memoizes(dup, SweepOptions{OnRound: func(int, int, Round) {}}) {
		t.Error("memoized despite OnRound callback")
	}
	if !memoizes(dup, SweepOptions{OnPointDone: func(int, CampaignResult) {}}) {
		t.Error("OnPointDone alone suppressed memoization; completions fan out, so it must compose")
	}
	if memoizes(dup, SweepOptions{stopAfterPoints: 1}) {
		t.Error("memoized despite stopAfterPoints")
	}
	if memoizes(dup, SweepOptions{Adaptive: AdaptiveStop{MinRounds: 4, HalfWidth: 0.05}}) {
		t.Error("memoized despite adaptive stopping")
	}
	hooked := append([]SweepPoint(nil), dup...)
	hooked[0].Scenario.SuccessCheck = func(*fs.FS, Paths, int) bool { return false }
	hooked[1].Scenario.SuccessCheck = func(*fs.FS, Paths, int) bool { return false }
	if memoizes(hooked, SweepOptions{}) {
		t.Error("memoized points carrying SuccessCheck hooks")
	}

	// And the stand-down is observable end to end: with OnRound set,
	// every budgeted round of both duplicate points is reported.
	// (Calls for different points may be concurrent, hence the atomic.)
	var seen atomic.Int64
	_, stats, err := RunSweepPoints(dup, SweepOptions{OnRound: func(int, int, Round) { seen.Add(1) }})
	if err != nil {
		t.Fatalf("sweep with OnRound: %v", err)
	}
	if seen.Load() != 24 || stats.PointsMemoized != 0 || stats.RoundsExecuted != 24 {
		t.Errorf("OnRound saw %d rounds, stats %+v; want 24 rounds and no memoization", seen.Load(), stats)
	}
}

func TestSweepMemoizationRemapsErrorPoint(t *testing.T) {
	healthy := viSc(machine.SMP2(), 4<<10, 44011, false)
	points := []SweepPoint{
		{Scenario: healthy, Rounds: 10},
		{Scenario: healthy, Rounds: 10}, // memoized away: shifts unique indices
		{Scenario: failingScenario(44013), Rounds: 10},
	}
	_, _, err := RunSweepPoints(points, SweepOptions{})
	if err == nil {
		t.Fatal("sweep with a failing point succeeded, want error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SweepError", err)
	}
	if se.Point != 2 {
		t.Errorf("failing point = %d, want the original index 2", se.Point)
	}
}

// TestMemoRepsMatchOnKeysNotHashes pins memoReps' grouping against its
// hash shortcut: hashes precomputed by the fingerprint pass group points
// exactly as encoding every key does, restored points claim their keys
// first, and when every hash collides only the key bytes decide.
func TestMemoRepsMatchOnKeysNotHashes(t *testing.T) {
	a := viSc(machine.Uniprocessor(), 50<<10, 41011, false)
	b := viSc(machine.SMP2(), 20<<10, 41013, true)
	points := []SweepPoint{
		{Scenario: a, Rounds: 30},
		{Scenario: b, Rounds: 20},
		{Scenario: a, Rounds: 30},
		{Scenario: b, Rounds: 20},
		{Scenario: a, Rounds: 31},
	}
	sums := make([]keySum, len(points))
	fingerprints(points, AdaptiveStop{}, sums)
	collided := make([]keySum, len(sums))
	for i, s := range sums {
		collided[i] = keySum{hash: 7, exact: s.exact}
	}
	restored := map[int]CampaignResult{2: {}, 3: {}}
	for _, tc := range []struct {
		name     string
		restored map[int]CampaignResult
		want     []int
	}{
		{"fresh", nil, []int{0, 1, 0, 1, 4}},
		{"restored", restored, []int{2, 3, 2, 3, 4}},
	} {
		for _, s := range []struct {
			name string
			sums []keySum
		}{{"encoded", nil}, {"precomputed", sums}, {"collided", collided}} {
			if got := memoReps(points, tc.restored, s.sums); !slices.Equal(got, tc.want) {
				t.Errorf("%s, %s hashes: rep = %v, want %v", tc.name, s.name, got, tc.want)
			}
		}
	}
}
