package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// ThreadState is the scheduling state of a thread.
type ThreadState uint8

const (
	// StateReady means runnable, waiting for (or being dispatched to) a CPU.
	StateReady ThreadState = iota + 1
	// StateRunning means currently assigned to and executing on a CPU.
	StateRunning
	// StateBlocked means waiting on a semaphore, timer, flag, or I/O.
	StateBlocked
	// StateDone means the thread function has returned.
	StateDone
)

// String returns a short name for the state.
func (s ThreadState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Process is a group of threads sharing a credential. It mirrors the parts
// of a Unix process the experiments need: identity and ownership.
type Process struct {
	PID  int
	Name string
	UID  int
	GID  int

	k       *Kernel
	threads []*Thread
	liveCnt int
}

// Threads returns the process's threads (live and exited).
func (p *Process) Threads() []*Thread {
	out := make([]*Thread, len(p.threads))
	copy(out, p.threads)
	return out
}

// Alive reports whether any thread of the process has not exited.
func (p *Process) Alive() bool { return p.liveCnt > 0 }

// yieldKind tells yieldTo what bookkeeping the blocking primitive needs
// before the thread re-enters the event loop.
type yieldKind uint8

const (
	yieldCompute yieldKind = iota + 1
	yieldBlocked
)

// killSignal is the panic value used to unwind a killed thread function.
type killSignal struct{}

// Thread is one schedulable execution context.
type Thread struct {
	id   int
	proc *Process
	name string

	state       ThreadState
	cpu         int // CPU index while assigned, else -1
	computeLeft time.Duration
	runStart    Time
	workPending bool
	workGen     uint64 // invalidates stale work-done events
	schedGen    uint64 // invalidates stale quantum/dispatch events

	resume      chan struct{}
	blockReason string
	blockSem    *Sem   // the semaphore a blocked thread waits on, else nil
	blockCancel func() // dequeues the thread from a semaphore/flag wait queue

	// timerArmed and timerGen track a pending timed wake-up (sleep or
	// simulated I/O). They replace a per-block cancellation closure so the
	// timer path — the most frequent blocking primitive — schedules
	// nothing but a compact event record.
	timerArmed bool
	timerGen   uint64

	// intrGen invalidates stale injected-interrupt events (each
	// interruptible semaphore wait arms at most one, and every wake-up
	// bumps the generation); intrDelivered marks that the current wake-up
	// is an injected EINTR rather than a semaphore handoff.
	intrGen       uint64
	intrDelivered bool

	killed bool
	err    error // panic captured from the thread function
	owned  []*Sem

	// nice is the scheduling priority: lower values are dispatched ahead
	// of higher ones when a CPU frees up (FIFO within a level). Default 0.
	nice int

	// schedClass groups threads an exploring Chooser may treat as
	// interchangeable when their remaining compute is also equal (see
	// classToken). 0, the default, marks the thread unique.
	schedClass uint16

	// cpuTime accumulates executed compute time, for accounting tests.
	cpuTime time.Duration

	// fn is the thread body for the current round. It lives on the
	// struct (not in the launch closure) so a pooled shell can run a
	// different body each round without a fresh goroutine.
	fn func(*Task)
	// task is the reusable Task handle passed to fn; sharing one per
	// thread keeps the spawn path allocation-free.
	task Task
	// pooled marks a shell owned by the kernel's fork pool: its
	// goroutine parks for reuse after each round instead of exiting.
	pooled bool
	// drain asks a parked pooled goroutine to exit (see Kernel.Drain).
	drain bool
}

// ID returns the thread id.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// State returns the current scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// CPUTime returns the total compute time the thread has executed.
func (t *Thread) CPUTime() time.Duration { return t.cpuTime }

// Nice returns the thread's scheduling priority value.
func (t *Thread) Nice() int { return t.nice }

// SetNice sets the scheduling priority: lower values win the CPU first
// when threads compete for a freed processor (§3.2's "the priority of the
// attacker (if priority-based scheduling is used)"). It does not reorder
// a queue the thread is already waiting in.
func (t *Thread) SetNice(nice int) { t.nice = nice }

// SetScheduleClass declares the thread interchangeable, for schedule
// exploration, with every other thread of the same nonzero class whose
// remaining compute is equal (identical closures, identical state — e.g.
// a pool of load hogs). Class 0, the default, keeps the thread unique.
// Only meaningful under a Chooser; it never affects FIFO scheduling.
func (t *Thread) SetScheduleClass(class uint16) { t.schedClass = class }

// NewProcess registers a process with the given name and credentials.
func (k *Kernel) NewProcess(name string, uid, gid int) *Process {
	k.nextPID++
	if k.pooling && k.procIdx < len(k.procPool) {
		p := k.procPool[k.procIdx]
		k.procIdx++
		p.PID, p.Name, p.UID, p.GID = k.nextPID, name, uid, gid
		p.k = k
		p.threads = p.threads[:0]
		p.liveCnt = 0
		k.procs = append(k.procs, p)
		return p
	}
	p := &Process{PID: k.nextPID, Name: name, UID: uid, GID: gid, k: k}
	if k.pooling {
		k.procPool = append(k.procPool, p)
		k.procIdx = len(k.procPool)
	}
	k.procs = append(k.procs, p)
	return p
}

// Spawn creates a thread in process p running fn and makes it runnable.
// It may be called before Run or from inside a running thread function.
// On a kernel replaying a forked prefix (see Fork) the thread reuses a
// parked shell — struct, resume channel, and goroutine — from the pool;
// a recycled shell is field-reset to the exact state of a fresh thread,
// so pooled and unpooled spawns are observationally identical.
func (k *Kernel) Spawn(p *Process, name string, fn func(*Task)) *Thread {
	k.nextTID++
	var th *Thread
	if k.pooling && k.poolIdx < len(k.pool) {
		th = k.pool[k.poolIdx]
		k.poolIdx++
		th.id = k.nextTID
		th.proc = p
		th.name = name
		th.state = StateReady
		th.cpu = -1
		th.computeLeft = 0
		th.runStart = 0
		th.workPending = false
		th.workGen, th.schedGen, th.timerGen, th.intrGen = 0, 0, 0, 0
		th.blockReason, th.blockSem = "", nil
		th.blockCancel = nil
		th.timerArmed = false
		th.intrDelivered = false
		th.killed = false
		th.err = nil
		th.owned = th.owned[:0]
		th.nice = 0
		th.schedClass = 0
		th.cpuTime = 0
		th.fn = fn
	} else {
		th = &Thread{
			id:     k.nextTID,
			proc:   p,
			name:   name,
			state:  StateReady,
			cpu:    -1,
			resume: make(chan struct{}),
			fn:     fn,
		}
		th.task = Task{k: k, th: th}
		if k.pooling {
			th.pooled = true
			k.pool = append(k.pool, th)
			k.poolIdx = len(k.pool)
		}
		k.launch(th)
	}
	k.threads = append(k.threads, th)
	p.threads = append(p.threads, th)
	p.liveCnt++
	k.live++
	if k.tracing() {
		k.emitThread(th, Event{Kind: EvSpawn, Label: name})
	}
	k.makeReady(th)
	return th
}

// launch starts the coroutine for th. The goroutine parks until the kernel
// first hands it the control token, runs th.fn, then retires the thread in
// the epilogue and keeps driving the event loop until the token moves on.
// During unwindLive the epilogue instead hands the token straight back to
// the unwinder. A pooled shell then parks again, waiting to be re-enlisted
// (with a new body) by a later Spawn on the same kernel; an unpooled
// goroutine exits. Both the normal and the unwound round end with the
// goroutine back at the resume park, so recycling needs no extra
// synchronization beyond the existing token handshake.
func (k *Kernel) launch(th *Thread) {
	go func() {
		for {
			<-th.resume
			if th.drain {
				return
			}
			th.runRound(k)
			if !th.pooled {
				return
			}
		}
	}()
}

// runRound executes one round's thread body with the epilogue that retires
// the thread and keeps driving the event loop until the token moves on.
func (th *Thread) runRound(k *Kernel) {
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killSignal); !isKill {
				th.err = fmt.Errorf("sim: thread %q panicked: %v", th.name, r)
			}
		}
		if k.unwinding {
			k.mainResume <- struct{}{}
			return
		}
		k.finishThread(th)
		k.runLoop(th, true)
	}()
	if !th.killed {
		th.fn(&th.task)
	}
}

// finishThread retires an exited thread and triggers process-exit hooks.
func (k *Kernel) finishThread(th *Thread) {
	if th.state == StateRunning {
		k.runningCnt--
	}
	wasOnCPU := th.cpu >= 0
	cpuID := th.cpu
	th.state = StateDone
	th.schedGen++
	th.workGen++
	th.workPending = false
	th.cpu = -1
	k.live--
	th.proc.liveCnt--
	// A killed thread may die holding inode semaphores; hand them to the
	// next waiter so unrelated threads cannot hang on a leaked lock.
	for len(th.owned) > 0 {
		s := th.owned[len(th.owned)-1]
		th.owned = th.owned[:len(th.owned)-1]
		if s.owner == th {
			s.handoff(k)
		}
	}
	if k.tracing() {
		k.emitThread(th, Event{Kind: EvExit, Label: th.name})
	}
	if th.err != nil && k.userErr == nil {
		k.userErr = th.err
	}
	if wasOnCPU {
		c := k.cpus[cpuID]
		c.th = nil
		k.dispatchCPU(c)
	}
	if th.proc.liveCnt == 0 && k.onProcessExit != nil {
		k.onProcessExit(th.proc)
	}
}

// Kill requests asynchronous termination of a thread. The thread unwinds at
// its next simulation interaction point. Killing a Done thread is a no-op.
func (k *Kernel) Kill(th *Thread) {
	if th.state == StateDone || th.killed {
		return
	}
	th.killed = true
	switch th.state {
	case StateRunning:
		// Cancel pending work/quantum and unwind immediately.
		th.workGen++
		th.schedGen++
		th.workPending = false
		k.pendingOps++
		k.schedule(k.now, func() {
			k.pendingOps--
			if th.state != StateRunning {
				return
			}
			k.runningCnt--
			c := k.cpus[th.cpu]
			th.cpu = -1
			c.th = nil
			th.state = StateBlocked // not schedulable; resumed once to unwind
			k.dispatchCPU(c)
			k.wake(th)
		})
	case StateReady:
		k.removeReady(th)
		if th.cpu >= 0 {
			// Mid-dispatch: free the CPU.
			c := k.cpus[th.cpu]
			th.cpu = -1
			th.schedGen++
			c.th = nil
			k.pendingOps++
			k.scheduleKernel(k.now, evKillDispatch, nil, c, 0)
		}
		th.state = StateBlocked
		k.pendingOps++
		k.scheduleKernel(k.now, evKillWake, th, nil, 0)
	case StateBlocked:
		if th.timerArmed {
			th.timerArmed = false
			th.timerGen++
			k.timedCnt--
		}
		if th.blockCancel != nil {
			th.blockCancel()
			th.blockCancel = nil
		}
		k.pendingOps++
		k.scheduleKernel(k.now, evKillWake, th, nil, 0)
	}
}

// KillProcess kills every live thread of p.
func (k *Kernel) KillProcess(p *Process) {
	for _, th := range p.threads {
		k.Kill(th)
	}
}

// Task is the interface a thread function uses to interact with the
// simulated machine. All methods must be called only from the thread's own
// function (they yield control to the kernel loop).
type Task struct {
	k  *Kernel
	th *Thread
}

// Kernel returns the owning kernel.
func (t *Task) Kernel() *Kernel { return t.k }

// Thread returns the thread this task represents.
func (t *Task) Thread() *Thread { return t.th }

// Process returns the owning process.
func (t *Task) Process() *Process { return t.th.proc }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.k.now }

// RNG returns the kernel's deterministic random source.
func (t *Task) RNG() *rand.Rand { return t.k.rng }

// Killed reports whether this thread has been asked to terminate.
func (t *Task) Killed() bool { return t.th.killed }

func (t *Task) checkKilled() {
	if t.th.killed {
		panic(killSignal{})
	}
}

// yieldTo relinquishes the thread's turn: it performs the yield's own
// bookkeeping (what the kernel-goroutine loop used to do after the yield
// channel handshake), then drives the shared event loop on this goroutine
// until the kernel selects this thread to run again — often without any
// goroutine switch (see runLoop).
func (t *Task) yieldTo(kind yieldKind) {
	k, th := t.k, t.th
	if kind == yieldCompute {
		th.runStart = k.now
		if k.completeInline(th) {
			return
		}
		switch k.foldSegment(th) {
		case foldRetired:
			return
		case foldIneligible:
			k.scheduleWork(th)
		}
		// foldMaterialized: the segment's remainder is armed with exact
		// mid-segment state; fall through to the loop without re-arming.
	}
	k.runLoop(th, false)
}

// Compute consumes d of CPU time. The elapsed virtual time may exceed d if
// the thread is preempted or interrupted by ticks and background noise.
func (t *Task) Compute(d time.Duration) {
	t.checkKilled()
	if d <= 0 {
		return
	}
	t.th.computeLeft = d
	t.yieldTo(yieldCompute)
	t.checkKilled()
}

// ComputeJitter consumes a jittered amount of CPU time around base.
func (t *Task) ComputeJitter(base time.Duration) {
	t.Compute(t.k.JitterDuration(base))
}

// Sleep blocks the thread for d of virtual time without consuming CPU.
func (t *Task) Sleep(d time.Duration) {
	t.blockTimed("sleep", d, EvBlock)
}

// BlockIO blocks the thread on a storage operation of duration d.
func (t *Task) BlockIO(d time.Duration) {
	t.blockTimed("io", d, EvIOBlock)
}

func (t *Task) blockTimed(reason string, d time.Duration, kind EventKind) {
	t.checkKilled()
	if d <= 0 {
		return
	}
	k, th := t.k, t.th
	if k.tracing() {
		k.emitThread(th, Event{Kind: kind, Label: reason, Arg: int64(d)})
	}
	k.blockCurrent(th, reason, nil)
	k.timedCnt++
	th.timerGen++
	th.timerArmed = true
	k.afterKernel(d, evTimerWake, th, nil, th.timerGen)
	t.yieldTo(yieldBlocked)
	t.checkKilled()
}

// YieldCPU voluntarily relinquishes the CPU, going to the back of the run
// queue if other threads are waiting.
func (t *Task) YieldCPU() {
	t.checkKilled()
	k, th := t.k, t.th
	if k.ready.Len() == 0 {
		return
	}
	k.preempt(th)
	t.yieldTo(yieldBlocked) // resumed when redispatched
	t.checkKilled()
}

// Trace emits a trace event stamped with the thread's identity. Page-fault
// traps are additionally tallied in the kernel's always-on counter block,
// with or without a tracer attached.
func (t *Task) Trace(ev Event) {
	if ev.Kind == EvTrap {
		t.k.stats.Traps++
	}
	t.k.emitThread(t.th, ev)
}

// Tracing reports whether a tracer is attached to the kernel, so callers
// on hot paths can skip building Event values that would be discarded.
func (t *Task) Tracing() bool { return t.k.tracer != nil }

// Mark emits an EvMark event with the given label.
func (t *Task) Mark(label string) { t.Trace(Event{Kind: EvMark, Label: label}) }

// Spawn creates a sibling thread in the same process.
func (t *Task) Spawn(name string, fn func(*Task)) *Thread {
	return t.k.Spawn(t.th.proc, name, fn)
}
