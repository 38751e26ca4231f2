package sim

import (
	"math/bits"
	"time"
)

// evKind discriminates the kernel-internal actions an event queue entry can
// carry. The hot scheduling paths (dispatch completion, quantum expiry,
// compute completion, timer wake-ups, ticks, noise) are encoded as compact
// tagged records instead of closures so that scheduling an event performs
// no heap allocation; evFunc remains for the rare cold paths (kill unwind,
// user-scheduled callbacks) where a closure is the clearest tool.
type evKind uint8

const (
	// evFunc runs an arbitrary callback (cold paths only).
	evFunc evKind = iota
	// evStartRun begins execution of th on c after context-switch latency.
	evStartRun
	// evQuantum fires quantum expiry for th running on c.
	evQuantum
	// evWorkDone completes th's pending compute segment.
	evWorkDone
	// evTimerWake wakes th from a timed block (sleep / simulated I/O).
	evTimerWake
	// evTick is the periodic timer interrupt on c.
	evTick
	// evNoise is a background-activity burst on c.
	evNoise
	// evNoiseSlot is a chooser-driven noise deliberation slot on c.
	evNoiseSlot
	// evSemIntr delivers an injected interruption to th's semaphore wait.
	evSemIntr
	// evKillDispatch frees c for redispatch after a mid-dispatch kill.
	evKillDispatch
	// evKillWake resumes a killed thread once so it can unwind.
	evKillWake
)

// timedEvent is an entry in the kernel's event queue. Events at equal
// instants fire in insertion order (seq), which keeps runs deterministic.
// The struct is stored by value in the queue: pushing and popping never box
// through an interface and never allocate.
type timedEvent struct {
	at   Time
	seq  uint64
	gen  uint64
	th   *Thread
	c    *cpu
	fn   func()
	kind evKind
}

// Per-CPU slot registers. Six of the event kinds are at-most-one-pending
// per CPU at any instant (the periodic sources re-arm only from their own
// handler; dispatch, quantum, and compute completion are tied to the single
// thread a CPU can host), so instead of paying heap push/pop/sift for the
// bulk of the event traffic they live in fixed registers on the cpu struct.
// The dispatcher takes the (at, seq) minimum across the heap top and every
// armed register, which is the identical strict total order the single heap
// imposed — seq values are still assigned by the same k.seq++ at the same
// call sites — so the processed event sequence is bit-for-bit unchanged.
//
// The one semantic difference is deliberate: re-arming a slot overwrites a
// superseded entry (e.g. the stale evWorkDone left behind by a preemption)
// that the heap would have popped as a generation-guarded no-op. Those
// ghost pops ran no handler and mutated no state; their only trace was
// advancing k.now between live events, which is observable solely through
// the final clock of an ErrMaxTime-truncated run. Kernel.lastAt tracks the
// maximum scheduled instant within the time budget so that path reproduces
// the historical end time exactly (see runLoop).
const (
	slotTick = iota
	slotNoise
	slotNoiseSlot
	slotStart
	slotQuantum
	slotWork
	numSlots
)

// slotEvKinds maps a slot index to the evKind its entries dispatch as.
var slotEvKinds = [numSlots]evKind{
	slotTick:      evTick,
	slotNoise:     evNoise,
	slotNoiseSlot: evNoiseSlot,
	slotStart:     evStartRun,
	slotQuantum:   evQuantum,
	slotWork:      evWorkDone,
}

// timeInf is the sentinel "no pending event" instant for Kernel.nextAt.
const timeInf = Time(1<<63 - 1)

// evSlot is one pending-event register.
type evSlot struct {
	at    Time
	seq   uint64
	gen   uint64
	th    *Thread
	armed bool
}

// eventQueue is a hand-rolled 4-ary min-heap over []timedEvent, ordered by
// (at, seq). Because (at, seq) is a strict total order, any heap-property-
// preserving implementation pops events in the identical globally sorted
// sequence, so neither replacing container/heap nor the heap's arity
// changes a simulated outcome — the rewrite only removes the per-operation
// boxing of timedEvent through `any`, and the wider fan-out halves the
// sift depth (four children share a cache line's worth of records).
type eventQueue []timedEvent

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

// push inserts ev, sifting it up to its heap position.
func (q *eventQueue) push(ev timedEvent) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the backing array does not retain closures or thread pointers.
func (q *eventQueue) pop() timedEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = timedEvent{}
	h = h[:n]
	*q = h
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for r := c + 1; r < c+4 && r < n; r++ {
			if h.less(r, m) {
				m = r
			}
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// reset empties the queue in place, dropping references but keeping the
// backing array for reuse by the next simulation round.
func (q *eventQueue) reset() {
	clear(*q)
	*q = (*q)[:0]
}

// scheduleEvent enqueues ev to fire at instant at. Scheduling in the past
// is a programming error and is clamped to now to preserve monotonicity.
func (k *Kernel) scheduleEvent(at Time, ev timedEvent) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	if at <= k.maxT && at > k.lastAt {
		k.lastAt = at
	}
	if at < k.nextAt {
		k.nextAt = at
	}
	ev.at = at
	ev.seq = k.seq
	k.events.push(ev)
}

// armSlot loads c's pending-event register idx to fire at instant at,
// overwriting any superseded entry. It assigns the same k.seq++ sequence
// number a heap push would, so slot and heap events interleave in the
// identical global (at, seq) order.
func (k *Kernel) armSlot(c *cpu, idx int, at Time, th *Thread, gen uint64) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	if at <= k.maxT && at > k.lastAt {
		k.lastAt = at
	}
	if at < k.nextAt {
		k.nextAt = at
	}
	s := &c.slots[idx]
	s.at, s.seq, s.gen, s.th, s.armed = at, k.seq, gen, th, true
	c.armedMask |= 1 << idx
}

// armSlotAfter loads a register to fire d after the current instant.
func (k *Kernel) armSlotAfter(c *cpu, idx int, d time.Duration, th *Thread, gen uint64) {
	k.armSlot(c, idx, k.now.Add(d), th, gen)
}

// popNext removes and returns the globally earliest pending event — the
// (at, seq) minimum over the heap top and every armed slot register — or
// reports that no event is pending. Equal instants resolve by seq, so the
// merge preserves the exact firing order of the single-heap scheduler.
// As a byproduct the scan refreshes k.nextAt to the exact instant of the
// runner-up, restoring a tight bound for the inline-completion fast path.
func (k *Kernel) popNext() (timedEvent, bool) {
	var (
		best     *evSlot
		bestCPU  *cpu
		bestIdx  int
		bestKind evKind
	)
	at, seq, have := Time(0), uint64(0), false
	second := timeInf
	if len(k.events) > 0 {
		at, seq, have = k.events[0].at, k.events[0].seq, true
	}
	for _, c := range k.cpus {
		for m := c.armedMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros8(m)
			s := &c.slots[i]
			if !have || s.at < at || (s.at == at && s.seq < seq) {
				if have && at < second {
					second = at
				}
				at, seq, have = s.at, s.seq, true
				best, bestCPU, bestIdx, bestKind = s, c, i, slotEvKinds[i]
			} else if s.at < second {
				second = s.at
			}
		}
	}
	if !have {
		k.nextAt = timeInf
		return timedEvent{}, false
	}
	if best == nil {
		ev := k.events.pop()
		if len(k.events) > 0 && k.events[0].at < second {
			second = k.events[0].at
		}
		k.nextAt = second
		return ev, true
	}
	best.armed = false
	bestCPU.armedMask &^= 1 << bestIdx
	k.nextAt = second
	return timedEvent{at: best.at, seq: best.seq, gen: best.gen, th: best.th, c: bestCPU, kind: bestKind}, true
}

// schedule enqueues fn to run at instant at (cold paths only; hot paths use
// the typed scheduleKernel records to stay allocation-free).
func (k *Kernel) schedule(at Time, fn func()) {
	k.scheduleEvent(at, timedEvent{kind: evFunc, fn: fn})
}

// scheduleKernel enqueues a typed kernel action without allocating.
func (k *Kernel) scheduleKernel(at Time, kind evKind, th *Thread, c *cpu, gen uint64) {
	k.scheduleEvent(at, timedEvent{kind: kind, th: th, c: c, gen: gen})
}

// afterKernel enqueues a typed kernel action d after the current instant.
func (k *Kernel) afterKernel(d time.Duration, kind evKind, th *Thread, c *cpu, gen uint64) {
	k.scheduleKernel(k.now.Add(d), kind, th, c, gen)
}

// dispatchEvent runs the action an event carries.
func (k *Kernel) dispatchEvent(ev *timedEvent) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evStartRun:
		k.startRun(ev.c, ev.th, ev.gen)
	case evQuantum:
		k.quantumExpired(ev.c, ev.th, ev.gen)
	case evWorkDone:
		k.workDone(ev.th, ev.gen)
	case evTimerWake:
		k.timerWake(ev.th, ev.gen)
	case evTick:
		k.tickFire(ev.c)
	case evNoise:
		k.noiseFire(ev.c)
	case evNoiseSlot:
		k.noiseSlotFire(ev.c)
	case evSemIntr:
		k.semIntrFire(ev.th, ev.gen)
	case evKillDispatch:
		k.pendingOps--
		k.dispatchCPU(ev.c)
	case evKillWake:
		k.pendingOps--
		k.wake(ev.th)
	}
}
