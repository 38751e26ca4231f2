package core

// The sweep engine runs many campaigns — "sweep points" — as one unit of
// work on a process-wide worker pool. It exists because reproducing the
// paper's figures is dominated by orchestration once a single round is
// cheap: a sweep of N parameter points run as N back-to-back RunCampaign
// calls pays N pool constructions, N end-of-campaign barriers, and N
// O(rounds) result buffers. Here instead:
//
//   - One shared pool of workers claims (point, round) tickets from the
//     whole sweep, so a slow point's tail no longer idles the machine —
//     workers that exhaust one point immediately continue into the next.
//   - Rounds stream into per-point CampaignResult accumulators as they
//     finish. The integer counters fold commutatively; the float Welford
//     summaries (L, D, Window) are order-sensitive, so a small reorder
//     buffer (bounded by the number of in-flight rounds, not by the
//     budget) commits rounds in ascending round-index order. Summaries
//     are therefore bit-identical to the serial fold.
//   - The first round error cancels the whole sweep promptly instead of
//     surfacing only after every remaining round has run.
//   - An opt-in adaptive budget stops a point early once the Wilson
//     interval on its success rate is narrow enough. The committed
//     prefix is still folded in order, so an adaptive result equals the
//     fixed-budget result of a campaign with exactly that many rounds.

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
	// Rounds is the point's (maximum) round budget; must be > 0.
	Rounds int
}

// AdaptiveStop configures sequential stopping for a sweep: a point stops
// spending rounds once the Wilson score interval on its observed success
// rate has half-width at most HalfWidth. The zero value disables it.
type AdaptiveStop struct {
	// HalfWidth is the target confidence half-width on the success rate
	// in [0, 1]; 0 disables adaptive stopping.
	HalfWidth float64
	// Z is the interval's z value (0 selects 1.96, ~95% confidence).
	Z float64
	// MinRounds is the minimum committed rounds before the rule is
	// consulted (0 selects 50), guarding against spuriously tight
	// intervals on tiny samples near rates of 0 or 1.
	MinRounds int
}

func (a AdaptiveStop) enabled() bool { return a.HalfWidth > 0 }

func (a AdaptiveStop) z() float64 {
	if a.Z > 0 {
		return a.Z
	}
	return 1.96
}

func (a AdaptiveStop) minRounds() int {
	if a.MinRounds > 0 {
		return a.MinRounds
	}
	return 50
}

// SweepOptions tunes a sweep execution.
type SweepOptions struct {
	// Adaptive, when its HalfWidth is positive, lets each point stop
	// early; the default (zero) runs every point's full fixed budget,
	// keeping all results bit-identical to serial RunCampaign calls.
	Adaptive AdaptiveStop
	// OnRound, when non-nil, observes every committed round. It is
	// called in ascending round-index order within each point (the
	// commit order), under that point's fold lock; calls for different
	// points may be concurrent. The Round's Events are always nil (they
	// alias a worker's reused trace buffer) and the Round must not be
	// retained past the call.
	OnRound func(point, round int, r Round)
	// OnPointDone, when non-nil, observes each point the moment its last
	// round commits (full budget spent or adaptive rule satisfied), with
	// the caller's point index. It fires exactly once per completed
	// point, under that point's fold lock; calls for different points
	// may be concurrent, and points cut short by cancellation or
	// Interrupt never fire. Under RunSweepPointsCheckpoint it fires from
	// the sweep's committer, one call at a time, once the point's
	// checkpoint line is written, and additionally replays the points
	// the checkpoint restored (ResumeSweep: ascending index order, before
	// any simulation), so a resumed sweep reports every point exactly
	// once — the streaming seam the campaign service is built on.
	OnPointDone func(point int, res CampaignResult)
	// Interrupt, when non-nil, requests a graceful mid-sweep stop the
	// moment it is closed: workers stop claiming rounds, in-flight
	// rounds finish and commit, and the sweep returns
	// ErrSweepInterrupted. Points that completed before the interrupt
	// have already reached OnPointDone (and, under checkpointing, the
	// checkpoint file), so an interrupted sweep resumes bit-identically.
	Interrupt <-chan struct{}
	// stopAfterPoints, when positive, cancels the sweep right after that
	// many points complete and makes RunSweepPoints return
	// ErrSweepInterrupted. Unexported: it simulates a mid-sweep crash for
	// the checkpoint-resume determinism tests.
	stopAfterPoints int
}

// SweepStats reports how much work a sweep performed.
type SweepStats struct {
	// RoundsCommitted counts rounds folded into the results.
	RoundsCommitted int
	// RoundsExecuted counts rounds actually simulated; it can exceed
	// RoundsCommitted when adaptive stopping discards in-flight
	// overshoot, and fall far short of the budget on cancellation.
	RoundsExecuted int
	// PointsStopped counts points halted early by the adaptive rule.
	PointsStopped int
	// PointsMemoized is always zero: every point is simulated. The field
	// stays because the benchmark module reads it.
	PointsMemoized int
}

// ErrSweepInterrupted reports a sweep that stopped deliberately — the
// Interrupt channel closed (a draining server), or the checkpoint tests'
// simulated crash after a requested number of completed points — with
// every result committed so far already flushed through the completion
// hooks. It is not a round failure: no SweepError wraps it.
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
// all rounds from the shared worker pool. Per-round seeds derive exactly
// as in RunCampaign, and with the default fixed budget each result is
// bit-identical to RunCampaign(scs[i], rounds) — regardless of
// GOMAXPROCS or how the pool interleaves the points.
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

	helpers := parallelism() - 1
	if max := int(r.total) - 1; helpers > max {
		helpers = max
	}
	dispatch(r, &r.wg, helpers)
	st := getCallerState()
	r.work(st)
	putCallerState(st)
	r.wg.Wait()

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
		if agg.done.Load() {
			stats.PointsStopped++
		} else if agg.next != points[i].Rounds {
			// Defensive: with no error and no adaptive stop, every
			// budgeted round must have been committed.
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
	completed   atomic.Int64 // points fully committed
	interrupted atomic.Bool  // stopAfterPoints tripped
	aggs        []pointAgg

	errMu sync.Mutex
	err   *SweepError

	wg sync.WaitGroup // outstanding pool helpers
}

// pointAgg accumulates one point's result, committing rounds in index
// order via a reorder buffer bounded by the number of in-flight rounds.
type pointAgg struct {
	mu      sync.Mutex
	res     CampaignResult
	next    int           // next round index to fold
	pending map[int]Round // out-of-order completions awaiting commit
	done    atomic.Bool   // adaptive rule satisfied; skip remaining work
}

// runOn implements poolJob.
func (r *sweepRun) runOn(st *roundState) {
	r.work(st)
	r.wg.Done()
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
		agg := &r.aggs[p]
		if agg.done.Load() {
			continue // adaptive-stopped point: skip its remaining budget
		}
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
	if agg.done.Load() {
		return // stopped while this round was in flight: discard
	}
	if i != agg.next {
		if agg.pending == nil {
			agg.pending = make(map[int]Round)
		}
		agg.pending[i] = round
		return
	}
	r.fold(p, agg, round)
	for !agg.done.Load() {
		nr, ok := agg.pending[agg.next]
		if !ok {
			return
		}
		delete(agg.pending, agg.next)
		r.fold(p, agg, nr)
	}
}

// fold commits one in-order round and consults the adaptive rule.
func (r *sweepRun) fold(p int, agg *pointAgg, round Round) {
	if r.opt.OnRound != nil {
		r.opt.OnRound(p, agg.next, round)
	}
	agg.res.addRound(round)
	agg.next++
	ad := r.opt.Adaptive
	if ad.enabled() && agg.res.Rounds >= ad.minRounds() && agg.res.Rounds < r.points[p].Rounds {
		if lo, hi := agg.res.Proportion().WilsonInterval(ad.z()); (hi-lo)/2 <= ad.HalfWidth {
			agg.done.Store(true)
			agg.pending = nil // any overshoot past the stopping index is discarded
		}
	}
	// A point completes by exhausting its budget or by stopping early;
	// either way this is the unique fold that finished it.
	if agg.done.Load() || agg.next == r.points[p].Rounds {
		if r.opt.OnPointDone != nil {
			r.opt.OnPointDone(p, agg.res)
		}
		if n := r.completed.Add(1); r.opt.stopAfterPoints > 0 && n >= int64(r.opt.stopAfterPoints) {
			r.interrupted.Store(true)
			r.cancel.Store(true)
		}
	}
}

// FindRound searches the seeds sc.Seed + i*stride (i ascending from 0)
// for the first round satisfying want, using the shared worker pool to
// evaluate candidate batches concurrently. It returns the matching
// round (re-simulated fresh, so its Events are owned by the caller), the
// seed that produced it, and the number of candidates examined — the
// same values a serial first-match scan yields. want runs inside pool
// workers: it must be safe for concurrent calls and must not retain the
// Round or its Events (they alias a worker's reused trace buffer).
func FindRound(sc Scenario, maxTries int, stride int64, want func(Round) bool) (Round, int64, int, error) {
	batch := 4 * parallelism()
	for lo := 0; lo < maxTries; lo += batch {
		hi := lo + batch
		if hi > maxTries {
			hi = maxTries
		}
		f := &findRun{sc: sc, stride: stride, lo: lo, hi: hi, want: want, best: -1, errIdx: -1}
		dispatch(f, &f.wg, hi-lo-1)
		st := getCallerState()
		f.work(st)
		putCallerState(st)
		f.wg.Wait()
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

	wg sync.WaitGroup
}

// runOn implements poolJob.
func (f *findRun) runOn(st *roundState) {
	f.work(st)
	f.wg.Done()
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

// --- process-wide worker pool --------------------------------------------

// poolJob is work a pool worker executes with its long-lived round
// context.
type poolJob interface {
	runOn(st *roundState)
}

// parallelism returns the target number of concurrent round executors
// (submitting caller included). At least 2, so the concurrent commit
// machinery is exercised — and race-tested — even on single-CPU hosts.
func parallelism() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

var enginePool struct {
	once sync.Once
	jobs chan poolJob
}

// ensurePool lazily starts the process-wide workers. They are few
// (parallelism()), long-lived, and park on the job channel between
// sweeps; each keeps one roundState, so its kernel, FS, and trace buffer
// are reused across every campaign in the process, not just within one.
func ensurePool() chan poolJob {
	enginePool.once.Do(func() {
		enginePool.jobs = make(chan poolJob)
		for i := 0; i < parallelism(); i++ {
			go func() {
				var st roundState
				for j := range enginePool.jobs {
					j.runOn(&st)
				}
			}()
		}
	})
	return enginePool.jobs
}

// dispatch offers a job to up to n idle pool workers, registering each
// acceptance on wg before the worker can possibly complete. Busy workers
// are never waited for — the caller always executes the job itself too,
// so progress needs no free worker.
func dispatch(j poolJob, wg *sync.WaitGroup, n int) {
	if n <= 0 {
		return
	}
	jobs := ensurePool()
	for i := 0; i < n; i++ {
		wg.Add(1)
		select {
		case jobs <- j:
		default:
			wg.Add(-1)
			return
		}
	}
}

// callerStates recycles round contexts for submitting goroutines,
// extending the pool workers' cross-campaign reuse to the caller's own
// share of the work. It is a bounded free list rather than a sync.Pool
// because a forked context parks its kernel's thread shells on goroutines
// that reference it: a context the GC-driven pool silently dropped would
// stay reachable from those goroutines, with its kernel, fs and prefix
// images, for the life of the process. Here a context that does not fit
// is released (its shells drained) instead. The capacity is parallelism():
// at most that many sweeps make progress at once, so that many spare
// contexts cover every concurrent caller on a busy host, and callers
// beyond it pay one fresh context per sweep, not a leak.
var callerStates = make(chan *roundState, parallelism())

// getCallerState takes a spare round context, or builds a fresh one.
func getCallerState() *roundState {
	select {
	case st := <-callerStates:
		return st
	default:
		return new(roundState)
	}
}

// putCallerState returns a context to the free list, releasing it when
// the list is full. Only a context between rounds may be put back; one a
// panicking round abandoned was reset by runRoundSafe and holds no kernel.
func putCallerState(st *roundState) {
	select {
	case callerStates <- st:
	default:
		st.release()
	}
}

// errAs is a tiny local alias to keep campaign.go's imports tidy.
func sweepErrorAs(err error) (*SweepError, bool) {
	var se *SweepError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}
