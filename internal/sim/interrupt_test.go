package sim

import (
	"errors"
	"testing"
	"time"
)

// scriptedInterrupter interrupts every blocked wait after a fixed delay.
type scriptedInterrupter struct {
	delay     time.Duration
	armed     int
	delivered int
}

func (s *scriptedInterrupter) SemBlocked(th *Thread, sem *Sem) (time.Duration, bool) {
	s.armed++
	return s.delay, true
}

func (s *scriptedInterrupter) SemInterrupted(th *Thread) { s.delivered++ }

// TestInterruptibleAcquireDelivered: a wait that would block for ~1ms gets
// an interruption 10µs in; the waiter comes back with ErrInterrupted and
// never owns the semaphore.
func TestInterruptibleAcquireDelivered(t *testing.T) {
	in := &scriptedInterrupter{delay: 10 * time.Microsecond}
	cfg := testConfig(2)
	cfg.Interrupter = in
	k := New(cfg)
	p := k.NewProcess("p", 0, 0)
	sem := NewSem("inode")
	var waitErr error
	var interruptedAt Time
	k.Spawn(p, "holder", func(task *Task) {
		sem.Acquire(task)
		task.Compute(time.Millisecond)
		sem.Release(task)
	})
	k.Spawn(p, "waiter", func(task *Task) {
		// Let the holder win the semaphore first.
		task.Sleep(time.Microsecond)
		waitErr = sem.AcquireInterruptible(task)
		interruptedAt = task.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(waitErr, ErrInterrupted) {
		t.Fatalf("waiter error = %v, want ErrInterrupted", waitErr)
	}
	if in.armed != 1 || in.delivered != 1 {
		t.Errorf("armed=%d delivered=%d, want 1/1", in.armed, in.delivered)
	}
	// Blocked at 1µs, interrupted 10µs later.
	if got, want := interruptedAt, Time(11*time.Microsecond); got != want {
		t.Errorf("interrupted at %v, want %v", got, want)
	}
	if sem.Waiters() != 0 {
		t.Errorf("interrupted waiter still queued (%d waiters)", sem.Waiters())
	}
}

// TestInterruptibleAcquireStaleDiscarded: the holder releases long before
// the armed interruption's instant, so the waiter acquires normally and
// the stale delivery is discarded without effect (and without wedging the
// event loop's pending-operation accounting).
func TestInterruptibleAcquireStaleDiscarded(t *testing.T) {
	in := &scriptedInterrupter{delay: 10 * time.Millisecond}
	cfg := testConfig(2)
	cfg.Interrupter = in
	k := New(cfg)
	p := k.NewProcess("p", 0, 0)
	sem := NewSem("inode")
	var waitErr error
	acquired := false
	k.Spawn(p, "holder", func(task *Task) {
		sem.Acquire(task)
		task.Compute(100 * time.Microsecond)
		sem.Release(task)
	})
	k.Spawn(p, "waiter", func(task *Task) {
		task.Sleep(time.Microsecond)
		waitErr = sem.AcquireInterruptible(task)
		if waitErr == nil {
			acquired = true
			sem.Release(task)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if waitErr != nil {
		t.Fatalf("waiter error = %v, want nil (stale interruption must not deliver)", waitErr)
	}
	if !acquired {
		t.Fatal("waiter never acquired the semaphore")
	}
	if in.armed != 1 || in.delivered != 0 {
		t.Errorf("armed=%d delivered=%d, want 1/0", in.armed, in.delivered)
	}
}

// TestInterruptibleAcquireWithoutInterrupter: with no Interrupter in the
// config, AcquireInterruptible is exactly Acquire.
func TestInterruptibleAcquireWithoutInterrupter(t *testing.T) {
	k := New(testConfig(2))
	p := k.NewProcess("p", 0, 0)
	sem := NewSem("inode")
	var waitErr error
	k.Spawn(p, "holder", func(task *Task) {
		sem.Acquire(task)
		task.Compute(time.Millisecond)
		sem.Release(task)
	})
	k.Spawn(p, "waiter", func(task *Task) {
		task.Sleep(time.Microsecond)
		waitErr = sem.AcquireInterruptible(task)
		if waitErr == nil {
			sem.Release(task)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if waitErr != nil {
		t.Fatalf("waiter error = %v, want nil", waitErr)
	}
}

// TestInterruptibleAcquireUncontendedConsumesNoDecision: the fast path
// never consults the Interrupter, so fault plans perturb only genuinely
// blocked waits.
func TestInterruptibleAcquireUncontendedConsumesNoDecision(t *testing.T) {
	in := &scriptedInterrupter{delay: time.Microsecond}
	cfg := testConfig(1)
	cfg.Interrupter = in
	k := New(cfg)
	p := k.NewProcess("p", 0, 0)
	sem := NewSem("inode")
	k.Spawn(p, "solo", func(task *Task) {
		if err := sem.AcquireInterruptible(task); err != nil {
			t.Errorf("uncontended acquire: %v", err)
		}
		sem.Release(task)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if in.armed != 0 {
		t.Errorf("interrupter consulted %d times on an uncontended acquire, want 0", in.armed)
	}
}
