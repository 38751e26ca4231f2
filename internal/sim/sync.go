package sim

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// ErrInterrupted is returned by Sem.AcquireInterruptible when an injected
// signal-style interruption (see Config.Interrupter) cancels the wait
// before ownership was handed over — the simulated analogue of a syscall
// returning EINTR out of an interruptible down() on an inode semaphore.
var ErrInterrupted = errors.New("sim: semaphore wait interrupted")

// Interrupter decides, at the instant a thread blocks in an interruptible
// semaphore acquire, whether a signal-style interruption should be
// delivered to that wait and after how much virtual time. Implementations
// must be deterministic functions of their own state (the fault layer uses
// a dedicated per-round RNG stream) and must not call back into the
// kernel. A wait whose ownership is handed over before the chosen instant
// is no longer interrupted; the stale delivery is discarded.
type Interrupter interface {
	// SemBlocked is asked whether (and after how much virtual time) the
	// wait th just entered should be interrupted.
	SemBlocked(th *Thread, sem *Sem) (delay time.Duration, interrupt bool)
	// SemInterrupted observes an interruption that was actually delivered
	// (the wait was still pending at the chosen instant).
	SemInterrupted(th *Thread)
}

// Sem is a mutual-exclusion semaphore with a FIFO wait queue, modeling the
// per-inode i_sem of Unix-style file systems. Ownership is handed directly
// to the head waiter on release, exactly the "competition for the
// semaphore" dynamics of the paper's §3.4: whichever of the victim's and
// attacker's system calls acquires the inode semaphore first delays the
// other for its full critical section.
type Sem struct {
	// name is the semaphore's debug/trace label, or the label's prefix
	// when numbered: a numbered semaphore's label is name followed by num
	// in decimal. Labels are built only where they are read (trace
	// events, deadlock text, panics), so renumbering a recycled semaphore
	// is a store, not a string concatenation.
	name     string
	num      int64
	numbered bool
	owner    *Thread
	waiters  []*Thread
}

// NewSem creates a semaphore with a debug/trace name.
func NewSem(name string) *Sem { return &Sem{name: name} }

// Name returns the semaphore's label.
func (s *Sem) Name() string {
	if !s.numbered {
		return s.name
	}
	return s.name + strconv.FormatInt(s.num, 10)
}

// Owner returns the current owner thread, or nil. Exposed for tests.
func (s *Sem) Owner() *Thread { return s.owner }

// Renumber makes the semaphore's label its name followed by num; used
// for semaphores of numbered objects (inodes), which a recycled
// semaphore serves under a new number.
func (s *Sem) Renumber(num int64) { s.num, s.numbered = num, true }

// ResetState clears the owner and wait queue so a recycled semaphore can
// serve a new simulation round. The owner of a normally completed run is
// always nil already; an aborted run's force-unwound threads may still sit
// in the queue.
func (s *Sem) ResetState() {
	s.owner = nil
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Waiters returns the number of queued waiters. Exposed for tests.
func (s *Sem) Waiters() int { return len(s.waiters) }

// Acquire blocks the calling thread until it owns the semaphore.
// Acquiring a semaphore the thread already owns is a programming error and
// unwinds the thread with an error.
func (s *Sem) Acquire(t *Task) {
	t.checkKilled()
	if s.tryFast(t) {
		return
	}
	s.acquireSlow(t, false)
}

// AcquireInterruptible is Acquire for wait sites that model Linux's
// down_interruptible: if the kernel has an Interrupter installed and it
// elects to interrupt this wait, the call returns ErrInterrupted after the
// chosen virtual-time delay without acquiring the semaphore. With no
// Interrupter (the default) it is exactly Acquire and always returns nil.
func (s *Sem) AcquireInterruptible(t *Task) error {
	t.checkKilled()
	if s.tryFast(t) {
		return nil
	}
	return s.acquireSlow(t, true)
}

// tryFast takes an uncontended semaphore without blocking, or panics on a
// recursive acquire. Returns false when the caller must queue.
func (s *Sem) tryFast(t *Task) bool {
	k, th := t.k, t.th
	if s.owner == nil {
		s.owner = th
		th.owned = append(th.owned, s)
		k.stats.SemAcquires++
		if k.tracing() {
			k.emitThread(th, Event{Kind: EvSemAcquire, Label: s.Name()})
		}
		return true
	}
	if s.owner == th {
		panic(fmt.Sprintf("sim: thread %q recursively acquired semaphore %q", th.name, s.Name()))
	}
	return false
}

// acquireSlow queues the thread and blocks until ownership is handed over
// or — on an interruptible wait the Interrupter chose to break — the
// injected interruption wakes it empty-handed.
func (s *Sem) acquireSlow(t *Task, interruptible bool) error {
	k, th := t.k, t.th
	s.waiters = append(s.waiters, th)
	k.stats.SemBlocks++
	blockedAt := k.now
	if k.tracing() {
		k.emitThread(th, Event{Kind: EvSemBlock, Label: s.Name()})
	}
	th.blockCancel = func() { s.removeWaiter(th) }
	if interruptible {
		if in := k.cfg.Interrupter; in != nil {
			if d, ok := in.SemBlocked(th, s); ok {
				th.intrGen++
				k.pendingOps++
				k.afterKernel(d, evSemIntr, th, nil, th.intrGen)
			}
		}
	}
	k.blockCurrent(th, "", s)
	t.yieldTo(yieldBlocked)
	th.intrGen++ // invalidate any still-armed interrupt delivery
	t.checkKilled()
	if th.intrDelivered {
		th.intrDelivered = false
		return ErrInterrupted
	}
	// Release handed us ownership before waking us.
	th.owned = append(th.owned, s)
	k.stats.SemAcquires++
	k.stats.SemWaitNs += int64(k.now.Sub(blockedAt))
	if k.tracing() {
		k.emitThread(th, Event{Kind: EvSemAcquire, Label: s.Name()})
	}
	return nil
}

// semIntrFire delivers an armed interruption to th's semaphore wait. The
// delivery is stale — and discarded — if the wait already ended (ownership
// handoff bumped intrGen when the thread resumed, or the thread was
// killed). pendingOps keeps the deadlock detector aware of the in-flight
// event either way.
func (k *Kernel) semIntrFire(th *Thread, gen uint64) {
	k.pendingOps--
	if th.intrGen != gen || th.state != StateBlocked || th.killed {
		return
	}
	if th.blockCancel != nil {
		th.blockCancel()
		th.blockCancel = nil
	}
	th.intrDelivered = true
	k.emitThread(th, Event{Kind: EvFault, Label: "eintr"})
	if in := k.cfg.Interrupter; in != nil {
		in.SemInterrupted(th)
	}
	k.makeReady(th)
}

// Release transfers the semaphore to the head waiter, or frees it. Only the
// owner may release.
func (s *Sem) Release(t *Task) {
	t.checkKilled()
	k, th := t.k, t.th
	if s.owner != th {
		panic(fmt.Sprintf("sim: thread %q released semaphore %q it does not own", th.name, s.Name()))
	}
	if k.tracing() {
		k.emitThread(th, Event{Kind: EvSemRelease, Label: s.Name()})
	}
	th.disown(s)
	s.handoff(k)
}

// handoff transfers ownership to the next waiter or frees the semaphore.
// FIFO by default; under a Chooser the wake order is a choice point — real
// kernels make no FIFO promise for i_sem, and the winner of the paper's
// §3.4 semaphore competition is exactly what exploration must enumerate.
func (s *Sem) handoff(k *Kernel) {
	if len(s.waiters) > 0 {
		i := k.chooseWaiter(s.waiters)
		w := s.waiters[i]
		s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
		w.blockCancel = nil
		s.owner = w
		w.owned = append(w.owned, s)
		k.makeReady(w)
		return
	}
	s.owner = nil
}

// disown removes s from the thread's owned-semaphore list.
func (th *Thread) disown(s *Sem) {
	for i, o := range th.owned {
		if o == s {
			th.owned = append(th.owned[:i], th.owned[i+1:]...)
			return
		}
	}
}

func (s *Sem) removeWaiter(th *Thread) {
	for i, w := range s.waiters {
		if w == th {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Flag is a one-shot condition: threads Wait until some thread calls Set.
// It models the lightweight signaling the pipelined attacker (§7) uses to
// hand the symlink step to its second thread.
type Flag struct {
	name       string
	blockLabel string // cached "flag:"+name: a flag is never relabelled
	set        bool
	waiters    []*Thread
}

// NewFlag creates a flag with a debug/trace name.
func NewFlag(name string) *Flag { return &Flag{name: name, blockLabel: "flag:" + name} }

// Wait blocks the calling thread until the flag is set. Returns immediately
// if it already is.
func (f *Flag) Wait(t *Task) {
	t.checkKilled()
	if f.set {
		return
	}
	k, th := t.k, t.th
	f.waiters = append(f.waiters, th)
	th.blockCancel = func() { f.removeWaiter(th) }
	k.blockCurrent(th, f.blockLabel, nil)
	t.yieldTo(yieldBlocked)
	t.checkKilled()
}

// Set sets the flag and wakes all waiters.
func (f *Flag) Set(t *Task) {
	t.checkKilled()
	if f.set {
		return
	}
	f.set = true
	k := t.k
	for _, w := range f.waiters {
		w.blockCancel = nil
		k.makeReady(w)
	}
	f.waiters = nil
}

func (f *Flag) removeWaiter(th *Thread) {
	for i, w := range f.waiters {
		if w == th {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return
		}
	}
}
