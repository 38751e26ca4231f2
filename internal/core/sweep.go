package core

// The sweep engine runs many campaigns — "sweep points" — as one unit of
// work. It exists because reproducing the paper's figures is dominated by
// orchestration once a single round is cheap: a sweep of N parameter
// points run as N back-to-back RunCampaign calls pays N start-ups, N
// end-of-campaign barriers, and N O(rounds) result buffers. Here instead:
//
//   - The caller and its helper goroutines, started per sweep, claim
//     (point, round) tickets from the whole sweep, so a slow point's tail
//     no longer idles the machine — executors that exhaust one point
//     immediately continue into the next. Each runs on a round context
//     from the callerStates free list, so kernels, file systems and
//     trace buffers outlive the sweep.
//   - Rounds stream into per-point CampaignResult accumulators as they
//     finish. The integer counters fold commutatively; the float Welford
//     summaries (L, D, Window) are order-sensitive, so a small reorder
//     buffer (bounded by the number of in-flight rounds, not by the
//     budget) commits rounds in ascending round-index order. Summaries
//     are therefore bit-identical to the serial fold.
//   - The first round error cancels the whole sweep promptly instead of
//     surfacing only after every remaining round has run.
//
// Every point runs its whole fixed budget, as the paper's rates do, so a
// committed round is a pure function of its scenario, seed and index.

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// SweepPoint pairs a scenario with its round budget.
type SweepPoint struct {
	Scenario Scenario
	// Rounds is the point's round budget; must be > 0.
	Rounds int
}

// AdaptiveStop is empty: sweeps no longer stop points early. The type
// stays, and OpenCheckpoint keeps an argument of it, because the
// benchmark module passes AdaptiveStop{} there.
type AdaptiveStop struct{}

// SweepOptions tunes a sweep execution.
type SweepOptions struct {
	// OnRound, when non-nil, observes every committed round. It is
	// called in ascending round-index order within each point (the
	// commit order), under that point's fold lock; calls for different
	// points may be concurrent. The Round's Events are always nil (they
	// alias a worker's reused trace buffer) and the Round must not be
	// retained past the call.
	OnRound func(point, round int, r Round)
	// OnPointDone, when non-nil, observes each point the moment its last
	// round commits, with the caller's point index. It fires exactly once
	// per completed point, under that point's fold lock; calls for
	// different points may be concurrent, and points cut short by
	// cancellation or Interrupt never fire. Under
	// RunSweepPointsCheckpoint it fires from the sweep's committer, one
	// call at a time in point order, once the point's checkpoint line is
	// written, after replaying the points the checkpoint restored
	// (ResumeSweep, before any simulation), so a resumed sweep reports
	// every point exactly once, in order — the streaming seam the
	// campaign service is built on.
	OnPointDone func(point int, res CampaignResult)
	// Interrupt, when non-nil, requests a graceful mid-sweep stop the
	// moment it is closed: workers stop claiming rounds, in-flight
	// rounds finish and commit, and the sweep returns
	// ErrSweepInterrupted. Points that completed before the interrupt
	// have reached OnPointDone (checkpointed: those before the first
	// unfinished one), so an interrupted sweep resumes bit-identically.
	Interrupt <-chan struct{}
}

// SweepStats reports how much work a sweep performed.
type SweepStats struct {
	// RoundsCommitted counts rounds folded into the results.
	RoundsCommitted int
	// RoundsExecuted counts rounds actually simulated; it falls short of
	// the budget on cancellation.
	RoundsExecuted int
	// PointsMemoized is always zero: every point is simulated. The field
	// stays because the benchmark module reads it.
	PointsMemoized int
}

// ErrSweepInterrupted reports a sweep that stopped deliberately — the
// Interrupt channel closed (a draining server) — with every result
// committed so far already flushed through the completion hooks. It is
// not a round failure: no SweepError wraps it.
var ErrSweepInterrupted = errors.New("core: sweep interrupted")

// SweepError reports the sweep point and round whose simulation failed.
type SweepError struct {
	Point int
	Round int
	// Seed is the failing round's derived seed (base + (round+1)*stride),
	// ready to paste into a single-round reproduction.
	Seed int64
	Err  error
}

// Error implements error.
func (e *SweepError) Error() string {
	return fmt.Sprintf("core: sweep point %d round %d (seed %d): %v", e.Point, e.Round, e.Seed, e.Err)
}

// Unwrap exposes the underlying round error.
func (e *SweepError) Unwrap() error { return e.Err }

// RunSweep runs one campaign of the given budget per scenario, drawing
// all rounds from one ticket space. Per-round seeds derive exactly
// as in RunCampaign, and with the default fixed budget each result is
// bit-identical to RunCampaign(scs[i], rounds) — regardless of
// GOMAXPROCS or how the executors interleave the points.
func RunSweep(scs []Scenario, rounds int, opt SweepOptions) ([]CampaignResult, error) {
	points := make([]SweepPoint, len(scs))
	for i, sc := range scs {
		points[i] = SweepPoint{Scenario: sc, Rounds: rounds}
	}
	res, _, err := RunSweepPoints(points, opt)
	return res, err
}

// RunSweepPoints is RunSweep with per-point budgets and execution stats.
// Every point is simulated, duplicates included: a grid whose points
// share a key costs their rounds again but cannot change a result.
func RunSweepPoints(points []SweepPoint, opt SweepOptions) ([]CampaignResult, SweepStats, error) {
	if len(points) == 0 {
		return nil, SweepStats{}, nil
	}
	r := &sweepRun{points: points, opt: opt}
	r.offsets = make([]int64, len(points))
	for i, p := range points {
		if p.Rounds <= 0 {
			return nil, SweepStats{}, fmt.Errorf("core: sweep point %d needs rounds > 0, got %d", i, p.Rounds)
		}
		r.offsets[i] = r.total
		r.total += int64(p.Rounds)
	}
	r.aggs = make([]pointAgg, len(points))

	runParallel(int(r.total), r.work)

	stats := SweepStats{RoundsExecuted: int(r.executed.Load())}
	if r.err != nil {
		return nil, stats, r.err
	}
	if r.interrupted.Load() {
		// Deliberate mid-sweep stop: completed points already reached
		// OnPointDone; the rest are intentionally unfinished, so the
		// committed-budget invariant below does not apply.
		for i := range r.aggs {
			stats.RoundsCommitted += r.aggs[i].res.Rounds
		}
		return nil, stats, ErrSweepInterrupted
	}
	results := make([]CampaignResult, len(points))
	for i := range r.aggs {
		agg := &r.aggs[i]
		results[i] = agg.res
		stats.RoundsCommitted += agg.res.Rounds
		if agg.next != points[i].Rounds {
			// Defensive: with no error, every budgeted round must have
			// been committed.
			return nil, stats, fmt.Errorf("core: internal: sweep point %d committed %d of %d rounds", i, agg.next, points[i].Rounds)
		}
	}
	return results, stats, nil
}

// sweepRun is the shared state of one in-flight sweep.
type sweepRun struct {
	points  []SweepPoint
	opt     SweepOptions
	offsets []int64 // offsets[p] = first ticket of point p
	total   int64   // total tickets

	next        atomic.Int64 // ticket claim cursor
	cancel      atomic.Bool  // fail-fast flag
	executed    atomic.Int64
	interrupted atomic.Bool // Interrupt closed
	aggs        []pointAgg

	errMu sync.Mutex
	err   *SweepError
}

// pointAgg accumulates one point's result, committing rounds in index
// order via a reorder buffer bounded by the number of in-flight rounds.
type pointAgg struct {
	mu      sync.Mutex
	res     CampaignResult
	next    int           // next round index to fold
	pending map[int]Round // out-of-order completions awaiting commit
}

// work claims and executes tickets until the sweep is exhausted or
// cancelled. Tickets ascend through the flattened (point, round) space,
// so workers drain one point's tail and flow into the next with no
// barrier in between.
func (r *sweepRun) work(st *roundState) {
	for !r.cancel.Load() {
		if r.opt.Interrupt != nil {
			select {
			case <-r.opt.Interrupt:
				// Graceful stop: claim no further rounds. Rounds already in
				// flight on other workers still commit (commit ignores the
				// cancel flag), so a point whose last round is mid-simulation
				// completes and reaches the completion hooks before the sweep
				// drains.
				r.interrupted.Store(true)
				r.cancel.Store(true)
				return
			default:
			}
		}
		t := r.next.Add(1) - 1
		if t >= r.total {
			return
		}
		p := r.pointAt(t)
		i := int(t - r.offsets[p])
		sc := r.points[p].Scenario
		sc.Seed += int64(i+1) * SeedStride
		round, err := runRoundSafe(sc, st)
		r.executed.Add(1)
		if err != nil {
			r.fail(p, i, sc.Seed, err)
			return
		}
		// Events alias st's reused trace buffer; everything derived from
		// them was measured inside runRound.
		round.Events = nil
		r.commit(p, i, round)
	}
}

// pointAt maps a ticket to its sweep point.
func (r *sweepRun) pointAt(t int64) int {
	return sort.Search(len(r.offsets), func(p int) bool { return r.offsets[p] > t }) - 1
}

// fail records the earliest-known failing round and cancels the sweep.
func (r *sweepRun) fail(p, i int, seed int64, err error) {
	r.errMu.Lock()
	if r.err == nil || p < r.err.Point || (p == r.err.Point && i < r.err.Round) {
		r.err = &SweepError{Point: p, Round: i, Seed: seed, Err: err}
	}
	r.errMu.Unlock()
	r.cancel.Store(true)
}

// runRoundSafe is runRound behind a panic barrier. A panicking round —
// from a scenario-provided hook (guard constructor, success check) or a
// simulator invariant violation — surfaces as an ordinary error carrying
// the panic value and stack instead of tearing down the process, so the
// sweep cancels cleanly and the caller learns the exact (point, round,
// seed) to reproduce. The worker's reusable simulation context is
// discarded wholesale: a context that panicked mid-round may hold a
// half-built kernel, and the reuse switch in runRound rebuilds a nil one
// from scratch.
func runRoundSafe(sc Scenario, st *roundState) (round Round, err error) {
	defer func() {
		if r := recover(); r != nil {
			if st != nil {
				*st = roundState{}
			}
			round = Round{}
			err = fmt.Errorf("core: round panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return runRound(sc, st)
}

// commit folds round i of point p, buffering out-of-order completions so
// folds happen in ascending index order (Welford summaries are float-
// order-sensitive; in-order commits keep them bit-identical to a serial
// fold).
func (r *sweepRun) commit(p, i int, round Round) {
	agg := &r.aggs[p]
	agg.mu.Lock()
	defer agg.mu.Unlock()
	if i != agg.next {
		if agg.pending == nil {
			agg.pending = make(map[int]Round)
		}
		agg.pending[i] = round
		return
	}
	r.fold(p, agg, round)
	for {
		nr, ok := agg.pending[agg.next]
		if !ok {
			return
		}
		delete(agg.pending, agg.next)
		r.fold(p, agg, nr)
	}
}

// fold commits one in-order round.
func (r *sweepRun) fold(p int, agg *pointAgg, round Round) {
	if r.opt.OnRound != nil {
		r.opt.OnRound(p, agg.next, round)
	}
	agg.res.addRound(round)
	agg.next++
	if agg.next == r.points[p].Rounds { // the unique fold that completes the point
		if r.opt.OnPointDone != nil {
			r.opt.OnPointDone(p, agg.res)
		}
	}
}

// FindRound searches the seeds sc.Seed + i*stride (i ascending from 0)
// for the first round satisfying want, evaluating candidate batches on
// the caller and per-batch helper goroutines. It returns the matching
// round (re-simulated fresh, so its Events are owned by the caller), the
// seed that produced it, and the number of candidates examined — the
// same values a serial first-match scan yields. want runs on several
// goroutines at once: it must be safe for concurrent calls and must not
// retain the Round or its Events (they alias an executor's reused trace
// buffer).
func FindRound(sc Scenario, maxTries int, stride int64, want func(Round) bool) (Round, int64, int, error) {
	batch := 4 * parallelism()
	for lo := 0; lo < maxTries; lo += batch {
		hi := lo + batch
		if hi > maxTries {
			hi = maxTries
		}
		f := &findRun{sc: sc, stride: stride, lo: lo, hi: hi, want: want, best: -1, errIdx: -1}
		runParallel(hi-lo, f.work)
		if f.errIdx >= 0 && (f.best < 0 || f.errIdx < f.best) {
			return Round{}, 0, 0, f.err
		}
		if f.best >= 0 {
			seed := sc.Seed + int64(f.best)*stride
			rsc := sc
			rsc.Seed = seed
			r, err := RunRound(rsc)
			if err != nil {
				return Round{}, 0, 0, err
			}
			return r, seed, f.best + 1, nil
		}
	}
	return Round{}, 0, 0, fmt.Errorf("core: no round matching the requested outcome in %d tries", maxTries)
}

// findRun is one batch of a FindRound search.
type findRun struct {
	sc     Scenario
	stride int64
	lo, hi int
	want   func(Round) bool

	next atomic.Int64

	mu     sync.Mutex
	best   int // lowest matching candidate index, -1 if none
	err    error
	errIdx int // lowest failing candidate index, -1 if none
}

func (f *findRun) work(st *roundState) {
	for {
		t := f.lo + int(f.next.Add(1)-1)
		if t >= f.hi {
			return
		}
		// Candidates are claimed in ascending order, so once a match
		// exists every not-yet-claimed index is worse; in-flight lower
		// indexes finish on their own workers.
		f.mu.Lock()
		bestSoFar := f.best
		f.mu.Unlock()
		if bestSoFar >= 0 && t > bestSoFar {
			return
		}
		rsc := f.sc
		rsc.Seed = f.sc.Seed + int64(t)*f.stride
		round, err := runRoundSafe(rsc, st)
		if err != nil {
			f.mu.Lock()
			if f.errIdx < 0 || t < f.errIdx {
				f.err, f.errIdx = err, t
			}
			f.mu.Unlock()
			return
		}
		if f.want(round) {
			f.mu.Lock()
			if f.best < 0 || t < f.best {
				f.best = t
			}
			f.mu.Unlock()
		}
	}
}

// --- executors --------------------------------------------------------

// parallelism returns the target number of concurrent round executors
// (submitting caller included). At least 2, so the concurrent commit
// machinery is exercised — and race-tested — even on single-CPU hosts.
func parallelism() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// runParallel runs work, which claims tickets until none are left, on the
// calling goroutine and on min(parallelism()-1, tickets-1) more goroutines
// started for this call, each with its own round context from
// callerStates, and returns once all of them have. Results do not depend
// on which goroutine ran a round: sweeps commit in round-index order and
// FindRound keeps the lowest matching index.
func runParallel(tickets int, work func(st *roundState)) {
	var wg sync.WaitGroup
	for i := 0; i < min(parallelism()-1, tickets-1); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			withCallerState(work)
		}()
	}
	withCallerState(work)
	wg.Wait()
}

// callerStates is the free list of round contexts between sweeps, so a
// context's kernel, fs and trace buffer are reused across every campaign
// in the process, not just within one. It is a bounded free list rather
// than a sync.Pool because a forked context parks its kernel's thread
// shells on goroutines that reference it: a context the GC-driven pool
// silently dropped would stay reachable from those goroutines, with its
// kernel, fs and prefix images, for the life of the process. Here a
// context that does not fit is released (its shells drained) instead.
// The capacity is 2*parallelism(): every executor of two concurrent
// sweeps (campaignd runs two jobs at once) finds a context on the list,
// and executors beyond it pay one fresh context per sweep, not a leak.
var callerStates = make(chan *roundState, 2*parallelism())

// withCallerState runs work on a context from the free list, or on a
// fresh one when the list is empty, then returns the context to the list
// or releases it when the list is full. Only a context between rounds
// goes back; one a panicking round abandoned was reset by runRoundSafe
// and holds no kernel.
func withCallerState(work func(st *roundState)) {
	var st *roundState
	select {
	case st = <-callerStates:
	default:
		st = new(roundState)
	}
	work(st)
	select {
	case callerStates <- st:
	default:
		st.release()
	}
}

// sweepErrorAs returns the *SweepError err wraps, if any (errors.As).
func sweepErrorAs(err error) (*SweepError, bool) {
	var se *SweepError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}
