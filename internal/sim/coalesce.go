package sim

import "time"

// Stretch coalesces an uncontended run of compute segments — a stretch —
// executed by the single running thread into one bulk state update. It
// generalizes completeInline from one segment to many: while every
// coalesced completion instant provably precedes the earliest pending
// kernel event, the per-segment effects (the scheduleWork register arm,
// the event-loop pop, and workDone's retirement) collapse into arithmetic
// on a stack-local value, and the kernel sees a single aggregate
// publication at Commit.
//
// The soundness argument is the same as completeInline's, applied
// transitively. BeginStretch freezes k.nextAt — a lower bound on the
// earliest pending event's instant — and the coalesced path neither
// schedules nor pops events, so the bound stays valid for the whole
// stretch. Any other actor that could observe or perturb the stretch
// necessarily has a pending event (a dispatch, quantum expiry, timer
// wake-up, tick, noise burst, or injected interruption), so "every
// completion precedes nextAt" subsumes "exactly one thread is runnable
// and nothing can interleave". Threads blocked on a semaphore with no
// armed wake-up have no pending event, which is why semaphore users of
// the fast path must additionally check Sem.Quiet. Intermediate clock
// values are unobservable (no tracer is attached, and the stretch runs no
// handler that reads k.now), and bumping k.seq by the segment count at
// Commit is equivalent to per-segment increments because no interleaved
// call consumes sequence numbers mid-stretch.
//
// Coalescing changes no outcome: every counter (steps, seq, workGen,
// cpuTime, per-CPU busy time), the clock, and the RNG stream advance
// exactly as the stepped execution would, which the equivalence suite in
// core asserts bit for bit. Config.DisableCoalesce forces the stepped
// path for those comparisons.
type Stretch struct {
	k  *Kernel
	th *Thread
	// nextAt and maxT bound every coalesced completion instant: the frozen
	// lower bound on the earliest pending event, and the virtual-time
	// budget (strictly below the former, at most the latter — mirroring
	// completeInline's comparisons).
	nextAt Time
	maxT   Time
	// now is the stretch-local clock, published to k.now only at Commit.
	now Time
	// segs counts retired segments (each worth one event-loop step) and
	// consumed their total duration since the last Commit.
	segs     int64
	consumed time.Duration
}

// BeginStretch opens a coalescing stretch for the calling thread. It
// fails — and the caller must use the fully stepped path — whenever any
// per-segment effect could be observable: coalescing disabled by
// configuration, a tracer attached (per-segment events must be emitted),
// a Chooser installed (stretch boundaries are choice points the explorer
// must see), a pending user error, a kill requested, the thread not
// cleanly running, or a ghost work register left by preemption (the
// stepped path pops it as a counted no-op, which bulk accounting cannot
// reproduce).
func (t *Task) BeginStretch() (Stretch, bool) {
	k, th := t.k, t.th
	if k.cfg.DisableCoalesce || k.tracer != nil || k.cfg.Chooser != nil ||
		k.userErr != nil || th.killed || th.state != StateRunning ||
		th.workPending || k.cpus[th.cpu].slots[slotWork].armed {
		return Stretch{}, false
	}
	return Stretch{k: k, th: th, nextAt: k.nextAt, maxT: k.maxT, now: k.now}, true
}

// AdvanceResult reports how a Stretch.Advance retired its segment.
type AdvanceResult uint8

const (
	// AdvanceCoalesced: the segment was retired without the event loop
	// running — inside the stretch, inline, or through the interrupt
	// fold — so provably no other thread observed or interleaved with
	// it. Cross-segment invariants (like a Quiet semaphore) still hold.
	AdvanceCoalesced AdvanceResult = iota
	// AdvanceRouted: a pending event landed inside the segment, so the
	// stretch was committed and the segment executed through the real
	// event loop — other threads may have run, so cross-segment
	// invariants (like a Quiet semaphore) must be re-established — but
	// the stretch re-synchronized afterwards and remains open.
	AdvanceRouted
	// AdvanceBroken: the segment was executed through the event loop and
	// the stretch could not be re-established (the thread's state no
	// longer satisfies the coalescing preconditions). The segment's time
	// is consumed; the caller must finish stepped and BeginStretch anew.
	AdvanceBroken
)

// Advance retires one compute segment of duration d. When the segment's
// completion provably precedes every pending kernel event it is retired
// inside the stretch (AdvanceCoalesced) — pure arithmetic, no event-loop
// traffic. Otherwise the stretch is committed and the segment runs
// through the native scheduling path, bit-identically to Task.Compute —
// interrupts, preemption, and budget terminations all take their normal
// course — after which the stretch re-synchronizes to the kernel's state
// and reports AdvanceRouted (or AdvanceBroken when re-synchronization is
// impossible). The segment's duration is fully consumed in every case.
// A non-positive d is a no-op, exactly as it is for Task.Compute.
func (s *Stretch) Advance(d time.Duration) AdvanceResult {
	if d <= 0 {
		return AdvanceCoalesced
	}
	doneAt := s.now.Add(d)
	if doneAt >= s.nextAt || doneAt > s.maxT || s.k.steps+s.segs >= s.k.cfg.MaxSteps {
		return s.advanceSlow(d)
	}
	s.now = doneAt
	s.segs++
	s.consumed += d
	return AdvanceCoalesced
}

// advanceSlow executes a segment that cannot be retired in-stretch: it
// publishes the coalesced prefix, then drives the segment through the
// identical machinery Task.Compute uses — inline completion when the
// frozen bound was merely stale, the interrupt fold when only tick,
// noise, or quantum-renewal fires land inside the segment, and the real
// event loop otherwise. Afterwards it re-synchronizes the stretch from
// the kernel (both fold exits and the loop's last pop leave k.nextAt at
// an exact earliest-pending-instant bound), so coalescing resumes
// immediately unless the thread came back in a state the stretch
// preconditions reject (killed threads unwind with the same panic
// Task.Compute's epilogue raises). When the segment retired without the
// loop running — inline or folded — no other thread can have executed,
// so the result is AdvanceCoalesced and cross-segment invariants like a
// Quiet semaphore still hold.
func (s *Stretch) advanceSlow(d time.Duration) AdvanceResult {
	k, th := s.k, s.th
	s.Commit()
	th.runStart = k.now
	th.computeLeft = d
	clean := false
	if k.completeInline(th) {
		clean = true
	} else {
		switch k.foldSegment(th) {
		case foldRetired:
			clean = true
		case foldIneligible:
			k.scheduleWork(th)
			k.runLoop(th, false)
		case foldMaterialized:
			k.runLoop(th, false)
		}
		if th.killed {
			panic(killSignal{})
		}
	}
	if k.userErr != nil || th.state != StateRunning || th.workPending ||
		k.cpus[th.cpu].slots[slotWork].armed {
		return AdvanceBroken
	}
	s.now = k.now
	s.nextAt = k.nextAt
	s.maxT = k.maxT
	if clean {
		return AdvanceCoalesced
	}
	return AdvanceRouted
}

// Commit publishes the stretch's aggregate effect to the kernel — the
// same fields completeInline writes per segment, applied once: workGen
// and seq advance by the segment count, the clock and lastAt move to the
// stretch's final instant, the step counter and the thread's CPU-time
// accounting absorb the totals, and the post-dispatch termination checks
// are requested. Committing an empty stretch is a no-op. The stretch is
// reset afterwards, so the caller may keep Advancing and Commit again.
func (s *Stretch) Commit() {
	if s.segs == 0 {
		return
	}
	k, th := s.k, s.th
	th.workGen += uint64(s.segs)
	k.seq += uint64(s.segs)
	if s.now > k.lastAt {
		k.lastAt = s.now
	}
	k.now = s.now
	k.steps += s.segs
	th.cpuTime += s.consumed
	k.stats.addBusy(th.cpu, s.consumed)
	th.runStart = s.now
	k.checkPost = true
	s.segs = 0
	s.consumed = 0
}

// Quiet reports that the semaphore is idle: no owner and no queued
// waiters. An acquire/release pair by the running thread is then
// guaranteed to take the uncontended fast path — it blocks nothing,
// wakes nothing, and resolves no wake-order choice — which is the extra
// condition semaphore-holding critical sections need before being
// retired inside a coalesced stretch.
func (s *Sem) Quiet() bool { return s.owner == nil && len(s.waiters) == 0 }
