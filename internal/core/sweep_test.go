package core

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/userland"
)

// These tests pin down the sweep engine's contract: interleaving many
// campaigns over concurrent executors must be invisible in the results
// (bit-identical to a serial per-round fold), and a failing round must
// cancel the sweep promptly without leaking goroutines.

// serialCampaign is the reference implementation: the pre-sweep serial
// fold, one RunRound per derived seed, committed in index order.
func serialCampaign(t *testing.T, sc Scenario, rounds int) CampaignResult {
	t.Helper()
	var res CampaignResult
	for i := 0; i < rounds; i++ {
		rsc := sc
		rsc.Seed += int64(i+1) * SeedStride
		r, err := RunRound(rsc)
		if err != nil {
			t.Fatalf("serial round %d: %v", i, err)
		}
		res.addRound(r)
	}
	return res
}

// sweepTestPoints mixes machines, sizes, and tracing so the sweep
// interleaves heterogeneous work (traced rounds stress the reorder
// buffer's L/D summaries, which are float-order-sensitive).
func sweepTestPoints() []Scenario {
	return []Scenario{
		viSc(machine.Uniprocessor(), 200<<10, 31013, false),
		viSc(machine.SMP2(), 100<<10, 31013+7919, true),
		viSc(machine.SMP2(), 1, 31013+2*7919, true),
		viSc(machine.MultiCore(), 50<<10, 31013+3*7919, false),
	}
}

func TestRunSweepMatchesSerialFold(t *testing.T) {
	scs := sweepTestPoints()
	const rounds = 80
	want := make([]CampaignResult, len(scs))
	for i, sc := range scs {
		want[i] = serialCampaign(t, sc, rounds)
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := RunSweep(scs, rounds, SweepOptions{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: RunSweep: %v", procs, err)
		}
		for i := range scs {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d point %d: sweep diverged from serial fold:\n got: %+v\nwant: %+v",
					procs, i, got[i], want[i])
			}
		}
	}
}

func TestRunSweepPointsPerPointBudgets(t *testing.T) {
	scs := sweepTestPoints()
	budgets := []int{25, 60, 10, 45}
	points := make([]SweepPoint, len(scs))
	total := 0
	for i, sc := range scs {
		points[i] = SweepPoint{Scenario: sc, Rounds: budgets[i]}
		total += budgets[i]
	}
	res, stats, err := RunSweepPoints(points, SweepOptions{})
	if err != nil {
		t.Fatalf("RunSweepPoints: %v", err)
	}
	for i, b := range budgets {
		if res[i].Rounds != b {
			t.Errorf("point %d: committed %d rounds, budget %d", i, res[i].Rounds, b)
		}
		if want := serialCampaign(t, scs[i], b); res[i] != want {
			t.Errorf("point %d: sweep diverged from serial fold:\n got: %+v\nwant: %+v", i, res[i], want)
		}
	}
	if stats.RoundsCommitted != total || stats.RoundsExecuted != total {
		t.Errorf("stats = %+v, want all %d rounds committed and executed", stats, total)
	}
}

func TestRunSweepRejectsNonPositiveRounds(t *testing.T) {
	if _, err := RunSweep(sweepTestPoints()[:1], 0, SweepOptions{}); err == nil {
		t.Fatal("RunSweep with rounds=0 succeeded, want error")
	}
	if _, _, err := RunCampaignRounds(sweepTestPoints()[0], -3, false); err == nil {
		t.Fatal("RunCampaignRounds with rounds=-3 succeeded, want error")
	}
}

func TestOnRoundOrderedEventsStripped(t *testing.T) {
	scs := sweepTestPoints()
	const rounds = 40
	next := make([]int, len(scs))
	opt := SweepOptions{OnRound: func(point, round int, r Round) {
		// Concurrent calls happen only across points; within a point the
		// fold lock serializes them in index order.
		if round != next[point] {
			t.Errorf("point %d: observed round %d, want %d (in-order commit)", point, round, next[point])
		}
		next[point]++
		if r.Events != nil {
			t.Errorf("point %d round %d: Events leaked through OnRound", point, round)
		}
	}}
	if _, err := RunSweep(scs, rounds, opt); err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	for p, n := range next {
		if n != rounds {
			t.Errorf("point %d: observed %d rounds, want %d", p, n, rounds)
		}
	}
}

func TestCampaignKeepMatchesPerRoundReplay(t *testing.T) {
	sc := viSc(machine.SMP2(), 50<<10, 40321, true)
	const rounds = 30
	res, kept, err := RunCampaignRounds(sc, rounds, true)
	if err != nil {
		t.Fatalf("RunCampaignRounds: %v", err)
	}
	if len(kept) != rounds {
		t.Fatalf("kept %d rounds, want %d", len(kept), rounds)
	}
	if want := serialCampaign(t, sc, rounds); res != want {
		t.Fatalf("summary diverged from serial fold:\n got: %+v\nwant: %+v", res, want)
	}
	for i, k := range kept {
		rsc := sc
		rsc.Seed += int64(i+1) * SeedStride
		fresh, err := RunRound(rsc)
		if err != nil {
			t.Fatalf("replay round %d: %v", i, err)
		}
		if k.Events != nil {
			t.Fatalf("kept round %d retains Events", i)
		}
		fresh.Events = nil
		if k.Success != fresh.Success || k.LD != fresh.LD || k.End != fresh.End ||
			k.Window != fresh.Window || k.WindowOK != fresh.WindowOK {
			t.Fatalf("kept round %d differs from fresh replay:\nkept:  %+v\nfresh: %+v", i, k, fresh)
		}
	}
}

// sabotageVictim deletes the privileged file, which the default success
// check reports as a fixture-corruption round error.
type sabotageVictim struct{}

func (sabotageVictim) Name() string { return "sabotage" }

func (sabotageVictim) Run(c *userland.Libc, env prog.Env) error {
	return c.Unlink(env.Passwd)
}

func failingScenario(seed int64) Scenario {
	sc := viSc(machine.SMP2(), 4<<10, seed, false)
	sc.Victim = sabotageVictim{}
	return sc
}

func TestSweepFailFastCancelsPromptly(t *testing.T) {
	const budget = 5000
	_, stats, err := RunSweepPoints(
		[]SweepPoint{{Scenario: failingScenario(60077), Rounds: budget}},
		SweepOptions{},
	)
	if err == nil {
		t.Fatal("sweep over a failing scenario succeeded, want error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SweepError", err)
	}
	if se.Point != 0 {
		t.Errorf("failing point = %d, want 0", se.Point)
	}
	// Fail-fast: only rounds already in flight when the first failure
	// landed may still run; nothing close to the full budget does.
	if stats.RoundsExecuted >= 100 {
		t.Errorf("executed %d rounds of a failing campaign, want prompt cancellation (< 100)", stats.RoundsExecuted)
	}
}

func TestCampaignRoundsFailFast(t *testing.T) {
	// Regression for the pre-sweep behavior: RunCampaignRounds used to
	// report a round error only after running every remaining round.
	_, _, err := RunCampaignRounds(failingScenario(61253), 5000, false)
	if err == nil {
		t.Fatal("failing campaign succeeded, want error")
	}
	if !strings.Contains(err.Error(), "core: round ") {
		t.Errorf("error %q does not name the failing round", err)
	}
}

func TestAbortedSweepsLeakNoGoroutines(t *testing.T) {
	abort := func() {
		_, _, err := RunSweepPoints(
			[]SweepPoint{{Scenario: failingScenario(62483), Rounds: 5000}},
			SweepOptions{},
		)
		if err == nil {
			t.Fatal("failing sweep succeeded, want error")
		}
	}
	abort() // warm up the persistent pool workers
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		abort()
	}
	// The pool's workers are persistent by design; aborted sweeps must
	// not strand anything beyond them.
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d across 20 aborted sweeps", before, after)
	}
}

func TestSweepErrorReportsEarliestFailure(t *testing.T) {
	// A healthy point ahead of a failing one: the error must name the
	// failing point even though the healthy point's rounds interleave.
	points := []SweepPoint{
		{Scenario: viSc(machine.SMP2(), 4<<10, 63029, false), Rounds: 50},
		{Scenario: failingScenario(63031), Rounds: 50},
	}
	_, _, err := RunSweepPoints(points, SweepOptions{})
	if err == nil {
		t.Fatal("sweep with a failing point succeeded, want error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SweepError", err)
	}
	if se.Point != 1 {
		t.Errorf("failing point = %d, want 1", se.Point)
	}
}

func TestFindRoundMatchesSerialScan(t *testing.T) {
	// Uniprocessor success is a few-percent event, so the first match
	// sits tens of candidates in — deep enough that several batches and
	// the early-exit path are exercised.
	sc := viSc(machine.Uniprocessor(), 200<<10, 70123, true)
	want := func(r Round) bool { return r.Success }
	const stride, tries = 9973, 512

	// Reference: the old serial first-match scan.
	serialIdx := -1
	for i := 0; i < tries; i++ {
		rsc := sc
		rsc.Seed += int64(i) * stride
		r, err := RunRound(rsc)
		if err != nil {
			t.Fatalf("serial scan %d: %v", i, err)
		}
		if want(r) {
			serialIdx = i
			break
		}
	}
	if serialIdx < 0 {
		t.Skip("no matching round in range; pick a different seed")
	}
	t.Logf("serial scan matched candidate %d", serialIdx)
	if serialIdx == 0 {
		t.Fatal("first candidate matches; pick a seed whose match is deeper so batching is exercised")
	}

	r, seed, n, err := FindRound(sc, tries, stride, want)
	if err != nil {
		t.Fatalf("FindRound: %v", err)
	}
	if n != serialIdx+1 || seed != sc.Seed+int64(serialIdx)*stride {
		t.Fatalf("FindRound chose candidate %d (seed %d), serial scan chose %d (seed %d)",
			n-1, seed, serialIdx, sc.Seed+int64(serialIdx)*stride)
	}
	if !want(r) {
		t.Fatal("FindRound returned a round not matching the predicate")
	}
	if len(r.Events) == 0 {
		t.Fatal("FindRound winner has no Events; the caller owns a fresh re-simulation")
	}
}

func TestFindRoundNoMatch(t *testing.T) {
	sc := viSc(machine.SMP2(), 20<<10, 71233, false)
	_, _, _, err := FindRound(sc, 16, 9973, func(Round) bool { return false })
	if err == nil {
		t.Fatal("FindRound with an unsatisfiable predicate succeeded, want error")
	}
}

// TestSweepCallerStatesBounded pins that the caller's round contexts do
// not outlive their sweeps. A forked context parks its kernel's thread
// shells on goroutines, so every context a sweep's caller drops without
// draining strands them for the life of the process. Many forked,
// faulted sweeps — each followed by a GC, which is what empties a
// sync.Pool — must leave the goroutine count where the first left it:
// run from one goroutine, from a fresh goroutine per sweep, and from
// more concurrent callers than the free list holds, whose surplus
// contexts must be drained.
func TestSweepCallerStatesBounded(t *testing.T) {
	const sweeps = 50
	for _, mode := range []struct {
		name    string
		callers int // concurrent goroutines per sweep; 0 runs inline
	}{{"one-goroutine", 0}, {"goroutine-per-sweep", 1}, {"concurrent-callers", 2*parallelism() + 1}} {
		t.Run(mode.name, func(t *testing.T) {
			sweep := func(i int) {
				pts := []SweepPoint{{Scenario: faultViSc(int64(70001 + i)), Rounds: 16}}
				if _, _, err := RunSweepPoints(pts, SweepOptions{}); err != nil {
					t.Errorf("sweep %d: %v", i, err)
				}
			}
			var first int
			for i := 0; i < sweeps; i++ {
				if mode.callers == 0 {
					sweep(i)
				} else {
					var wg sync.WaitGroup
					for c := 0; c < mode.callers; c++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							sweep(i)
						}()
					}
					wg.Wait()
				}
				runtime.GC()
				if i == 0 {
					first = runtime.NumGoroutine()
				}
			}
			// Contexts that live on are the free list's, at most
			// 2*parallelism(); every one parks at most one shell per
			// thread a faulted round spawns (victim, attacker, the fault
			// process, a restarted victim).
			bound := first + 2*parallelism()*4
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > bound && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > bound {
				t.Fatalf("goroutines grew from %d after the first sweep to %d after %d (bound %d): caller round contexts are leaking", first, got, sweeps, bound)
			}
		})
	}
}

// TestSweepFirstUsesEveryExecutor pins that a process's first sweep runs
// on every executor it asks for, not on its caller alone. It re-executes
// the test binary so that the sweep under test is the child process's
// first, with the parent's GOMAXPROCS. Every executor puts its round
// context back on the free list, so after the sweep the list holds one
// context per executor; with two or more Ps, at least two of them must
// have run a round (built a kernel).
func TestSweepFirstUsesEveryExecutor(t *testing.T) {
	if os.Getenv("TOCTTOU_FIRST_SWEEP") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSweepFirstUsesEveryExecutor$", "-test.count=1")
		cmd.Env = append(os.Environ(), "TOCTTOU_FIRST_SWEEP=1", fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("first-sweep child: %v\n%s", err, out)
		}
		return
	}
	if n := len(callerStates); n != 0 {
		t.Fatalf("free list holds %d contexts before the process's first sweep", n)
	}
	const rounds = 1000
	pts := []SweepPoint{{Scenario: viSc(machine.SMP2(), 20<<10, 52711, false), Rounds: rounds}}
	if _, _, err := RunSweepPoints(pts, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	executors := min(parallelism(), rounds)
	if n := len(callerStates); n != executors {
		t.Fatalf("free list holds %d contexts after the first sweep, want one per executor (%d): %d helpers never ran the work loop", n, executors, executors-n)
	}
	ran := 0
	for i := 0; i < executors; i++ {
		if st := <-callerStates; st.k != nil {
			ran++
		}
	}
	if procs := runtime.GOMAXPROCS(0); procs >= 2 && ran < 2 {
		t.Fatalf("rounds ran on %d of %d contexts with GOMAXPROCS=%d, want at least 2", ran, executors, procs)
	}
}
