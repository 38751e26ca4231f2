package workerpool

// Fleet tests use the helper-process pattern: the test binary re-execs
// itself as the worker command, and TestMain diverts the child into
// workerpool.Main before any test runs. Chaos schedules are injected
// through the worker environment exactly as the chaos soak does.

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

func TestMain(m *testing.M) {
	if os.Getenv("TOCTTOU_WORKER_PROCESS") == "1" {
		os.Exit(Main())
	}
	os.Exit(m.Run())
}

// fleetSpec compiles to 6 points of a few milliseconds each.
const fleetSpec = `name: fleet-test
machine: up
rounds: 30
seed: 7171
victim: vi
attacker: v1
sizes_kb: [100, 200, 300, 400, 500, 600]
`

func fleetPoints(t *testing.T) []core.SweepPoint {
	t.Helper()
	spec, err := scenario.LoadBytes("fleet-test.yaml", []byte(fleetSpec))
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return compiled.Points
}

func referenceResults(t *testing.T, points []core.SweepPoint) []core.CampaignResult {
	t.Helper()
	want, _, err := core.RunSweepPoints(points, core.SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return want
}

// testConfig returns a fleet config re-execing this binary as the
// worker, with soak-friendly timings.
func testConfig(t *testing.T, workers int, chaos string) Config {
	t.Helper()
	env := []string{"TOCTTOU_WORKER_PROCESS=1"}
	if chaos != "" {
		env = append(env, "TOCTTOU_CHAOS="+chaos)
	}
	return Config{
		Workers:           workers,
		Command:           []string{os.Args[0]},
		Env:               env,
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseTimeout:      2 * time.Second,
		BackoffBase:       5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		Logf:              t.Logf,
		Stderr:            io.Discard,
	}
}

// runFleet runs the fleet and asserts the exactly-once onPoint
// contract, returning the committed map, per-point onPoint counts, and
// stats.
func runFleet(t *testing.T, cfg Config, points []core.SweepPoint, restored map[int]core.CampaignResult) (map[int]core.CampaignResult, map[int]int, Stats) {
	t.Helper()
	calls := make(map[int]int)
	committed, stats, err := Run(cfg, "fleet-test.yaml", []byte(fleetSpec), points, restored,
		func(i int, res core.CampaignResult) error {
			calls[i]++ // single event-loop goroutine: no lock needed
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, n := range calls {
		if n != 1 {
			t.Errorf("onPoint fired %d times for point %d, want exactly once", n, i)
		}
	}
	return committed, calls, stats
}

func checkBitIdentical(t *testing.T, committed map[int]core.CampaignResult, want []core.CampaignResult, skip map[int]bool) {
	t.Helper()
	for i, w := range want {
		if skip[i] {
			continue
		}
		got, ok := committed[i]
		if !ok {
			t.Errorf("point %d never committed", i)
			continue
		}
		if got != w {
			t.Errorf("point %d diverged from the in-process reference:\ngot:  %+v\nwant: %+v", i, got, w)
		}
	}
}

func TestFleetCleanRunBitIdentical(t *testing.T) {
	points := fleetPoints(t)
	want := referenceResults(t, points)
	committed, calls, stats := runFleet(t, testConfig(t, 3, ""), points, nil)
	if len(committed) != len(points) || len(calls) != len(points) {
		t.Fatalf("committed %d points, onPoint saw %d, want %d", len(committed), len(calls), len(points))
	}
	checkBitIdentical(t, committed, want, nil)
	if stats.Restarts != 0 || stats.Stalls != 0 || len(stats.Quarantined) != 0 {
		t.Errorf("clean run reported restarts=%d stalls=%d quarantined=%v", stats.Restarts, stats.Stalls, stats.Quarantined)
	}
	if stats.Spawns != 3 {
		t.Errorf("spawns = %d, want 3", stats.Spawns)
	}
}

func TestFleetCrashTornRecoveryBitIdentical(t *testing.T) {
	// Workers 0 and 1 die at their first point (one cleanly crashed, one
	// mid-result-write); the fleet must recover and the results must not
	// show it. One live worker at a time: incarnation 1 is worker 0's
	// replacement and incarnation 2 finishes, so neither death can be
	// skipped by a sibling draining the queue first.
	points := fleetPoints(t)
	want := referenceResults(t, points)
	committed, _, stats := runFleet(t, testConfig(t, 1, "w0:crash@1;w1:torn@1"), points, nil)
	checkBitIdentical(t, committed, want, nil)
	if stats.Restarts < 2 {
		t.Errorf("restarts = %d, want >= 2 (two workers were killed)", stats.Restarts)
	}
	if stats.LeasesRequeued < 2 {
		t.Errorf("leases requeued = %d, want >= 2", stats.LeasesRequeued)
	}
}

func TestFleetExactlyOnceAfterCommitBeforeAck(t *testing.T) {
	// The exactly-once seam: worker 0 commits its first point's result
	// and dies before the lease ack. The requeued lease must detect the
	// committed point via the store (fingerprint-verified on arrival)
	// and not re-fold it — onPoint exactly once per point, a
	// PointsDeduped counter, bit-identical results. A
	// single worker takes the first lease whatever the scheduling (with
	// two, the second could drain the queue before worker 0 loads), so
	// the crash always fires; its replacement finishes the campaign.
	points := fleetPoints(t)
	want := referenceResults(t, points)
	committed, calls, stats := runFleet(t, testConfig(t, 1, "w0:crash-after@1"), points, nil)
	if len(calls) != len(points) {
		t.Fatalf("onPoint saw %d distinct points, want %d", len(calls), len(points))
	}
	checkBitIdentical(t, committed, want, nil)
	if stats.PointsDeduped < 1 {
		t.Errorf("points deduped = %d, want >= 1 (the committed-but-unacked point)", stats.PointsDeduped)
	}
	if stats.Restarts < 1 {
		t.Errorf("restarts = %d, want >= 1", stats.Restarts)
	}
}

func TestFleetStallDetectedByDeadline(t *testing.T) {
	// A single worker takes the first lease whatever the scheduling, so
	// its stall always fires; the replacement finishes the campaign.
	points := fleetPoints(t)
	want := referenceResults(t, points)
	cfg := testConfig(t, 1, "w0:stall@1")
	cfg.LeaseTimeout = 300 * time.Millisecond
	committed, _, stats := runFleet(t, cfg, points, nil)
	checkBitIdentical(t, committed, want, nil)
	if stats.Stalls < 1 || stats.Restarts < 1 {
		t.Errorf("stalls = %d, restarts = %d; want >= 1 each (worker 0 went silent and was replaced)", stats.Stalls, stats.Restarts)
	}
}

func TestFleetQuarantinesPoisonPoint(t *testing.T) {
	// Unscoped crash@point=2: every worker that leases point 2 dies
	// there. After MaxPointRetries kills the point must be quarantined
	// and the rest of the campaign must still complete bit-identically.
	points := fleetPoints(t)
	want := referenceResults(t, points)
	cfg := testConfig(t, 3, "crash@point=2")
	cfg.MaxPointRetries = 3
	committed, calls, stats := runFleet(t, cfg, points, nil)
	if len(committed) != len(points)-1 {
		t.Errorf("committed %d points, want %d (all but the poison point)", len(committed), len(points)-1)
	}
	if _, ok := committed[2]; ok {
		t.Error("poison point 2 has a committed result")
	}
	if n, ok := calls[2]; ok {
		t.Errorf("onPoint fired %d times for the poison point", n)
	}
	checkBitIdentical(t, committed, want, map[int]bool{2: true})
	if len(stats.Quarantined) != 1 || stats.Quarantined[0].Point != 2 || stats.Quarantined[0].Kills != 3 {
		t.Errorf("quarantined = %+v, want [{Point:2 Kills:3}]", stats.Quarantined)
	}
	if stats.Restarts < 3 {
		t.Errorf("restarts = %d, want >= 3", stats.Restarts)
	}
}

func TestFleetRestoredPointsNeverReExecute(t *testing.T) {
	points := fleetPoints(t)
	want := referenceResults(t, points)
	restored := make(map[int]core.CampaignResult, len(points))
	for i, r := range want {
		restored[i] = r
	}
	committed, calls, stats := runFleet(t, testConfig(t, 3, ""), points, restored)
	if stats.Spawns != 0 {
		t.Errorf("fully-restored run spawned %d workers, want 0", stats.Spawns)
	}
	if len(calls) != 0 {
		t.Errorf("onPoint fired for restored points: %v", calls)
	}
	checkBitIdentical(t, committed, want, nil)
}

func TestFleetInterruptStopsAndReaps(t *testing.T) {
	points := fleetPoints(t)
	interrupt := make(chan struct{})
	close(interrupt)
	cfg := testConfig(t, 2, "")
	cfg.Interrupt = interrupt
	committed, _, err := Run(cfg, "fleet-test.yaml", []byte(fleetSpec), points, nil,
		func(int, core.CampaignResult) error { return nil })
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(committed) != 0 {
		t.Errorf("pre-closed interrupt still committed %d points", len(committed))
	}
}

func TestFleetRestartBudgetExhausted(t *testing.T) {
	points := fleetPoints(t)
	cfg := testConfig(t, 2, "crash@1") // every worker incarnation dies at its first point
	cfg.MaxRestarts = 4
	cfg.MaxPointRetries = 1000 // keep quarantine out of the way
	_, _, err := Run(cfg, "fleet-test.yaml", []byte(fleetSpec), points, nil,
		func(int, core.CampaignResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "restart budget exhausted") {
		t.Fatalf("err = %v, want restart-budget exhaustion", err)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	points := fleetPoints(t)
	noop := func(int, core.CampaignResult) error { return nil }
	if _, _, err := Run(Config{Workers: 0, Command: []string{"x"}}, "f", nil, points, nil, noop); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, _, err := Run(Config{Workers: 1}, "f", nil, points, nil, noop); err == nil {
		t.Error("empty command accepted")
	}
	bad := Config{Workers: 1, Command: []string{"x"}, HeartbeatInterval: time.Second, LeaseTimeout: time.Second}
	if _, _, err := Run(bad, "f", nil, points, nil, noop); err == nil ||
		!strings.Contains(err.Error(), "must exceed heartbeat interval") {
		t.Errorf("lease-timeout <= heartbeat accepted: %v", err)
	}
}

func TestLineReaderDropsTornTail(t *testing.T) {
	in := strings.NewReader(`{"type":"heartbeat"}` + "\n" + `{"type":"point","point":3,"resu`)
	lr := newLineReader(in)
	msg, err := lr.next()
	if err != nil || msg.Type != MsgHeartbeat {
		t.Fatalf("first line: %v, %v", msg, err)
	}
	if _, err := lr.next(); err != io.EOF {
		t.Fatalf("torn tail err = %v, want io.EOF (dropped wholesale)", err)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	base, max := 50*time.Millisecond, 2*time.Second
	if a, b := backoffDelay(1, 3, 2, base, max), backoffDelay(1, 3, 2, base, max); a != b {
		t.Errorf("same inputs gave %v and %v", a, b)
	}
	if a, b := backoffDelay(1, 3, 2, base, max), backoffDelay(2, 3, 2, base, max); a == b {
		t.Errorf("different seeds gave identical jitter %v", a)
	}
	prevExp := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d := backoffDelay(7, 0, attempt, base, max)
		if d < base || d >= max+base {
			t.Errorf("attempt %d: delay %v outside [base, max+base)", attempt, d)
		}
		exp := d - d%base // strip jitter down to the exponential step
		if exp < prevExp {
			t.Errorf("attempt %d: exponential part shrank: %v after %v", attempt, exp, prevExp)
		}
		prevExp = exp
	}
}
