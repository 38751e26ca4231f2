package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tocttou/internal/stats"
)

// Errors returned by Kernel.Run.
var (
	// ErrDeadlock reports that live threads remain but none can ever run.
	ErrDeadlock = errors.New("sim: deadlock: live threads remain but none is runnable or has a pending timer")
	// ErrMaxSteps reports that the event budget was exhausted (runaway loop guard).
	ErrMaxSteps = errors.New("sim: exceeded maximum event count")
	// ErrMaxTime reports that the virtual-time budget was exhausted.
	ErrMaxTime = errors.New("sim: exceeded maximum virtual time")
)

// NoiseConfig models background kernel activity (softirqs, kernel timers,
// housekeeping daemons) that occasionally occupies a CPU and delays whatever
// is running there. The paper identifies exactly this as the reason success
// is "still not guaranteed" on a multiprocessor (§5): in several failed
// 1-byte vi runs "some other processes prevents the attacker from being
// scheduled on another CPU during the vi vulnerability window".
type NoiseConfig struct {
	// MeanInterval is the mean time between activity bursts on each CPU
	// (exponential inter-arrivals). Zero disables noise.
	MeanInterval time.Duration
	// MeanDuration is the median burst length; actual lengths are
	// log-normal with sigma 0.5, giving an occasional long burst.
	MeanDuration time.Duration
}

// NoiseSlotConfig replaces the RNG-driven NoiseConfig when a Chooser is
// installed: every Period, each CPU reaches a deliberation slot at which a
// background burst of fixed length Burst fires with probability Prob, up
// to Bound fired bursts per run (the schedule explorer's preemption
// bound). Fixed burst lengths and per-slot Bernoulli trials make the
// noise model a finite set of explicit choice points instead of a
// continuous arrival process. Ignored when Config.Chooser is nil or
// Period is zero.
type NoiseSlotConfig struct {
	// Period is the slot spacing on each CPU. Zero disables slots.
	Period time.Duration
	// Burst is the CPU time a fired burst steals.
	Burst time.Duration
	// Prob is the per-slot fire probability (quantized to sim.ProbScale).
	Prob float64
	// Bound caps fired bursts per run; 0 means unbounded.
	Bound int
	// PruneNoops skips the fire/no-fire deliberation at slots where a
	// burst provably cannot affect the round (no thread mid-compute on
	// the CPU): the two branches are identical there, so skipping is
	// outcome-preserving. Exposed as a knob so naive exploration can
	// verify that claim.
	PruneNoops bool
}

// Config parameterizes a simulated machine.
type Config struct {
	// CPUs is the number of processors (1 = uniprocessor).
	CPUs int
	// Quantum is the scheduler time slice.
	Quantum time.Duration
	// CtxSwitch is the cost of a context switch (dispatch latency).
	CtxSwitch time.Duration
	// TickPeriod is the timer-interrupt period (1ms for HZ=1000).
	TickPeriod time.Duration
	// TickCost is CPU time stolen by each timer interrupt.
	TickCost time.Duration
	// Noise configures background kernel activity.
	Noise NoiseConfig
	// Jitter is the relative standard deviation applied to modeled
	// latencies (see stats.Jitter).
	Jitter float64
	// Seed seeds the kernel's single deterministic RNG.
	Seed int64
	// Tracer receives trace events; nil disables tracing.
	Tracer Tracer
	// Chooser, when non-nil, resolves the kernel's scheduling choice
	// points (dispatch ties, semaphore wake order, noise slots) instead
	// of the FIFO/RNG defaults, and switches the stochastic model
	// elements above the kernel that check ChooserActive to explicit
	// choice points. Nil preserves the historical behavior bit for bit.
	Chooser Chooser
	// NoiseSlots configures the bounded noise-injection slot model used
	// when Chooser is set (the RNG arrival process is disabled then).
	NoiseSlots NoiseSlotConfig
	// StallBound caps how many ChooseStall choice points may resolve to
	// "stall" per run when a Chooser drives them (0 = unbounded); part of
	// the explorer's truncation model. Ignored without a Chooser.
	StallBound int
	// Interrupter, when non-nil, is consulted whenever a thread blocks on
	// an interruptible semaphore acquire (Sem.AcquireInterruptible) and may
	// schedule an EINTR-style interruption of the wait. Nil — the default —
	// keeps every acquire uninterruptible, bit-identical to the historical
	// behavior. Used by the fault-injection layer (internal/fault).
	Interrupter Interrupter
	// DisableCoalesce forces every compute segment and bulk file write
	// through the fully stepped event-loop path, turning off the stretch
	// coalescing fast-forward (see Stretch). The coalesced path is proven
	// bit-identical to the stepped one, so the knob changes no simulated
	// outcome; the equivalence suite flips it to compare both executions.
	DisableCoalesce bool
	// MaxSteps bounds the number of processed events (0 = default 50M).
	MaxSteps int64
	// MaxTime bounds virtual time (0 = default 10 virtual minutes).
	MaxTime time.Duration
}

func (c Config) withDefaults() Config {
	if c.CPUs <= 0 {
		c.CPUs = 1
	}
	if c.Quantum <= 0 {
		c.Quantum = 100 * time.Millisecond
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	if c.MaxTime <= 0 {
		c.MaxTime = 10 * time.Minute
	}
	return c
}

// cpu is one simulated processor.
type cpu struct {
	id int
	th *Thread // currently assigned thread, nil if idle

	// slots are the per-CPU pending-event registers (see event.go): the
	// timer tick, noise source, noise deliberation slot, in-flight
	// dispatch, quantum expiry, and compute completion each have at most
	// one pending instance per CPU, so they bypass the event heap.
	slots [numSlots]evSlot
	// armedMask has bit i set iff slots[i].armed, so the popNext merge
	// scan visits only armed registers.
	armedMask uint8
}

// Kernel is a deterministic discrete-event simulation of a small
// multiprocessor operating system. Create one with New, add processes and
// threads, then call Run. A finished kernel can be recycled for another
// simulation with Reset, which reuses the event queue, run queue, and
// thread table allocations of the previous run.
type Kernel struct {
	cfg    Config
	now    Time
	seq    uint64
	events eventQueue
	cpus   []*cpu
	ready  readyQueue // run queue of Ready threads awaiting a CPU
	rng    *rand.Rand // NewRand's generator, reseeded in place by Reset
	jitter stats.Jitter
	tracer Tracer

	stats KernelStats // always-on observability counters (see stats.go)

	threads []*Thread
	procs   []*Process
	nextPID int
	nextTID int

	// classBuf is scratch space for per-alternative equivalence tokens
	// handed to the chooser (see Choice.Class); reused across choice
	// points so consulting the chooser never allocates.
	classBuf []uint64
	// noiseInjected and stallsFired count budget consumption against
	// NoiseSlots.Bound and StallBound for the current run.
	noiseInjected int
	stallsFired   int

	live       int // threads not yet Done
	runningCnt int // threads in StateRunning
	timedCnt   int // threads blocked with a pending timer (sleep / IO)
	pendingOps int // scheduled kill/unwind events not yet processed

	steps int64

	// The event loop runs on whichever goroutine holds the control token:
	// Run's goroutine initially, and afterwards the goroutine of whichever
	// thread last blocked (see runLoop). mainResume wakes Run's goroutine at
	// simulation termination and during unwindLive's per-thread handshake.
	mainResume chan struct{}
	handoff    *Thread // thread selected to run next, set during dispatchEvent
	checkPost  bool    // post-dispatch termination checks pending
	finishErr  error   // simulation outcome recorded by terminate
	unwinding  bool    // unwindLive handshake in progress
	maxT       Time    // virtual-time budget, fixed at construction/Reset
	lastAt     Time    // latest instant scheduled within the time budget
	nextAt     Time    // lower bound on the earliest pending event's instant

	// onProcessExit, if set, is invoked when the last thread of a process
	// exits. Used by the experiment harness to cancel the attacker once
	// the victim completes.
	onProcessExit func(*Process)

	userErr error // first panic propagated from a thread function

	// Fork pooling (see snapshot.go). pooling is true only while the kernel
	// is replaying a forked prefix image; Spawn and NewProcess then recycle
	// the shells below instead of allocating. Both pools are kept in
	// creation order and re-consumed from index 0 each fork, so the i-th
	// spawn of every forked round receives the same pointer — closures and
	// caches capturing a shell stay valid across rounds.
	pooling  bool
	pool     []*Thread
	poolIdx  int
	procPool []*Process
	procIdx  int
}

// New creates a kernel for the given machine configuration.
func New(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	k := &Kernel{
		cfg:        cfg,
		rng:        NewRand(cfg.Seed),
		jitter:     stats.Jitter{Rel: cfg.Jitter},
		tracer:     cfg.Tracer,
		mainResume: make(chan struct{}),
	}
	k.cpus = make([]*cpu, cfg.CPUs)
	for i := range k.cpus {
		k.cpus[i] = &cpu{id: i}
	}
	k.stats.reset(cfg.CPUs)
	k.maxT = Time(cfg.MaxTime)
	k.nextAt = timeInf
	return k
}

// Reset returns the kernel to the pristine state New(cfg) would produce
// while reusing the event-queue, run-queue, and thread-table allocations of
// the previous simulation. It must only be called after Run has returned
// (Run unwinds every live thread goroutine before returning an error, so no
// coroutine of the previous round can still be parked). A Reset kernel with
// the same cfg and workload produces bit-identical results to a fresh one:
// the RNG is reseeded, all counters restart from zero, and the recycled
// containers are emptied.
func (k *Kernel) Reset(cfg Config) {
	cfg = cfg.withDefaults()
	k.cfg = cfg
	k.now = 0
	k.seq = 0
	k.steps = 0
	k.events.reset()
	k.ready.reset()
	if len(k.cpus) != cfg.CPUs {
		k.cpus = make([]*cpu, cfg.CPUs)
		for i := range k.cpus {
			k.cpus[i] = &cpu{id: i}
		}
	} else {
		for _, c := range k.cpus {
			c.th = nil
			c.slots = [numSlots]evSlot{}
			c.armedMask = 0
		}
	}
	k.stats.reset(cfg.CPUs)
	k.rng.Seed(cfg.Seed)
	k.jitter = stats.Jitter{Rel: cfg.Jitter}
	k.tracer = cfg.Tracer
	clear(k.threads)
	k.threads = k.threads[:0]
	clear(k.procs)
	k.procs = k.procs[:0]
	k.nextPID, k.nextTID = 0, 0
	k.noiseInjected, k.stallsFired = 0, 0
	k.live, k.runningCnt, k.timedCnt, k.pendingOps = 0, 0, 0, 0
	k.onProcessExit = nil
	k.userErr = nil
	k.handoff = nil
	k.checkPost = false
	k.finishErr = nil
	k.unwinding = false
	k.maxT = Time(cfg.MaxTime)
	k.lastAt = 0
	k.nextAt = timeInf
	k.pooling = false
	k.poolIdx, k.procIdx = 0, 0
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source. It must only be
// used from the kernel goroutine or a currently-running thread function.
func (k *Kernel) RNG() *rand.Rand { return k.rng }

// JitterDuration samples a jittered latency around base using the machine's
// configured relative noise.
func (k *Kernel) JitterDuration(base time.Duration) time.Duration {
	return k.jitter.Sample(k.rng, base)
}

// ExpDuration samples an exponentially distributed duration with the given
// mean.
func (k *Kernel) ExpDuration(mean time.Duration) time.Duration {
	return stats.Exponential(k.rng, mean)
}

// LogNormalDuration samples a log-normal duration with the given median
// and log-sigma.
func (k *Kernel) LogNormalDuration(median time.Duration, sigma float64) time.Duration {
	return stats.LogNormal(k.rng, median, sigma)
}

// Bernoulli returns true with probability p.
func (k *Kernel) Bernoulli(p float64) bool {
	return stats.Bernoulli(k.rng, p)
}

// OnProcessExit registers fn to be called when the last thread of any
// process exits. fn runs inside the kernel loop and may spawn or kill
// threads but must not block.
func (k *Kernel) OnProcessExit(fn func(*Process)) { k.onProcessExit = fn }

// Run processes events until no live threads remain. It returns an error
// on deadlock, event/time budget exhaustion, or if a thread function
// panicked. Before returning an error it force-unwinds every live thread so
// no coroutine goroutine is leaked parked on its resume channel.
func (k *Kernel) Run() error {
	k.startBackground()
	k.maxT = Time(k.cfg.MaxTime)
	k.finishErr = nil
	k.checkPost = false
	k.runLoop(nil, false)
	if k.finishErr != nil {
		k.unwindLive()
	}
	return k.finishErr
}

// loopOutcome is how a runLoop invocation ended, from the caller's view.
type loopOutcome uint8

const (
	// loopResumed: the kernel selected the calling thread to run again.
	loopResumed loopOutcome = iota
	// loopHandedOff: the token went to another goroutine; the dying caller
	// must exit.
	loopHandedOff
	// loopTerminated: the simulation finished; only Run's goroutine sees
	// this.
	loopTerminated
)

// runLoop drives the event loop on the calling goroutine. Exactly one
// goroutine holds the control token at any instant and runs this loop;
// every other coroutine is parked on its resume channel (or, for Run's
// goroutine, on mainResume). self is the calling thread (nil for Run's
// goroutine); dying marks the final call from an exiting thread's
// epilogue, which must hand the token on rather than park.
//
// This is the simulator's central performance device: when a blocking
// primitive re-enters the loop and the next scheduling decision picks the
// same thread (the overwhelmingly common case — a compute segment ending
// with the thread keeping its CPU), the loop simply returns and the thread
// continues, with no channel operation and no goroutine switch. A real
// thread switch costs one channel handoff instead of the previous two
// (thread → kernel goroutine → thread). The processed event sequence and
// every state mutation are identical to the classic kernel-goroutine loop;
// only which goroutine executes the iterations changes, so simulated
// outcomes are bit-for-bit the same.
func (k *Kernel) runLoop(self *Thread, dying bool) loopOutcome {
	for {
		if k.checkPost {
			k.checkPost = false
			if k.userErr != nil {
				return k.terminate(self, dying, k.userErr)
			}
			if k.live == 0 {
				return k.terminate(self, dying, nil)
			}
			if k.deadlocked() {
				return k.terminate(self, dying,
					fmt.Errorf("%w: %s", ErrDeadlock, k.describeBlocked()))
			}
		}
		ev, ok := k.popNext()
		if !ok {
			if k.live > 0 {
				return k.terminate(self, dying,
					fmt.Errorf("%w: %s", ErrDeadlock, k.describeBlocked()))
			}
			return k.terminate(self, dying, nil)
		}
		if ev.at > k.maxT {
			// The single-heap scheduler drained every event within the
			// budget — including generation-guarded no-ops a slot re-arm now
			// overwrites — before tripping here, leaving the clock at the
			// latest in-budget instant. Restore that exact final time.
			if k.lastAt > k.now {
				k.now = k.lastAt
			}
			return k.terminate(self, dying,
				fmt.Errorf("%w (%.0fms)", ErrMaxTime, k.cfg.MaxTime.Seconds()*1e3))
		}
		k.now = ev.at
		k.steps++
		if k.steps > k.cfg.MaxSteps {
			return k.terminate(self, dying,
				fmt.Errorf("%w (%d)", ErrMaxSteps, k.cfg.MaxSteps))
		}
		k.dispatchEvent(&ev)
		k.checkPost = true
		if th := k.handoff; th != nil {
			k.handoff = nil
			if th == self {
				return loopResumed
			}
			th.resume <- struct{}{}
			switch {
			case dying:
				return loopHandedOff
			case self != nil:
				<-self.resume // woken when scheduled again, or to unwind
				return loopResumed
			default:
				<-k.mainResume // Run's goroutine waits for termination
				return loopTerminated
			}
		}
	}
}

// wake marks th as the thread the event loop hands the control token to
// once the current event's dispatch completes. Called only from event
// handlers, at most once per dispatched event.
func (k *Kernel) wake(th *Thread) {
	if k.handoff != nil {
		panic("sim: two thread wake-ups in one event dispatch")
	}
	k.handoff = th
}

// terminate records the simulation outcome and routes the control token
// back to Run's goroutine. A live (blocked) detector thread parks until
// unwindLive unwinds it; a dying detector signals and exits.
func (k *Kernel) terminate(self *Thread, dying bool, err error) loopOutcome {
	k.finishErr = err
	if self == nil {
		return loopTerminated
	}
	k.mainResume <- struct{}{}
	if dying {
		return loopHandedOff
	}
	<-self.resume // parked until unwindLive resumes this thread to unwind
	return loopResumed
}

// unwindLive force-unwinds the coroutine of every thread that has not
// exited. When Run abandons a simulation mid-flight (deadlock, budget
// exhaustion, propagated panic) the live threads' goroutines are parked on
// their resume channels and would be leaked for the life of the process —
// the resource leak a long campaign would otherwise accumulate once a round
// errors out. Every park site (initial launch, the handoff parks inside
// runLoop, and terminate) re-checks the kill flag immediately after
// resuming, so marking the thread killed and resuming it once unwinds the
// function via the kill panic; the epilogue sees unwinding and hands the
// token straight back instead of re-entering the loop.
func (k *Kernel) unwindLive() {
	k.unwinding = true
	for _, th := range k.threads {
		if th.state == StateDone {
			continue
		}
		th.killed = true
		th.resume <- struct{}{}
		<-k.mainResume
		th.state = StateDone
		k.live--
	}
	k.unwinding = false
}

// deadlocked reports whether no thread can ever make progress again: live
// threads exist but none is running, ready, or waiting on a timer.
func (k *Kernel) deadlocked() bool {
	return k.live > 0 && k.runningCnt == 0 && k.ready.Len() == 0 &&
		k.timedCnt == 0 && k.pendingOps == 0 && !k.anyDispatching()
}

func (k *Kernel) anyDispatching() bool {
	for _, c := range k.cpus {
		if c.th != nil && c.th.state == StateReady {
			return true // dispatch in progress (context switch latency)
		}
	}
	return false
}

func (k *Kernel) describeBlocked() string {
	s := ""
	for _, th := range k.threads {
		if th.state == StateBlocked {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("%s(%s)", th.name, th.blockLabel())
		}
	}
	if s == "" {
		s = "no blocked threads recorded"
	}
	return s
}

// startBackground schedules the per-CPU timer ticks and noise sources.
// Under a Chooser the RNG noise arrival process is replaced by the
// bounded slot model, so background nondeterminism is a finite set of
// explicit choice points.
func (k *Kernel) startBackground() {
	if k.cfg.TickPeriod > 0 {
		for _, c := range k.cpus {
			k.armSlotAfter(c, slotTick, k.cfg.TickPeriod, nil, 0)
		}
	}
	if k.cfg.Chooser != nil {
		if ns := k.cfg.NoiseSlots; ns.Period > 0 {
			for _, c := range k.cpus {
				k.armSlotAfter(c, slotNoiseSlot, ns.Period, nil, 0)
			}
		}
		return
	}
	if k.cfg.Noise.MeanInterval > 0 {
		for _, c := range k.cpus {
			gap := k.ExpDuration(k.cfg.Noise.MeanInterval)
			k.armSlotAfter(c, slotNoise, gap, nil, 0)
		}
	}
}

// tickFire handles one timer interrupt on c and re-arms the next.
func (k *Kernel) tickFire(c *cpu) {
	if k.live == 0 {
		return
	}
	k.stats.Ticks++
	k.stats.TickNs += int64(k.cfg.TickCost)
	if k.tracing() {
		k.emit(Event{Kind: EvTick, CPU: int32(c.id), Arg: int64(k.cfg.TickCost)})
	}
	k.stealCPUTime(c, k.cfg.TickCost)
	k.armSlotAfter(c, slotTick, k.cfg.TickPeriod, nil, 0)
}

// noiseFire handles one background-activity burst on c and re-arms the
// next. The RNG draw order (burst duration, then next inter-arrival gap)
// matches the original closure-based scheduler, preserving seeded streams.
func (k *Kernel) noiseFire(c *cpu) {
	if k.live == 0 {
		return
	}
	dur := k.LogNormalDuration(k.cfg.Noise.MeanDuration, 0.5)
	k.stats.NoiseBursts++
	k.stats.NoiseNs += int64(dur)
	if k.tracing() {
		k.emit(Event{Kind: EvNoise, CPU: int32(c.id), Arg: int64(dur)})
	}
	k.stealCPUTime(c, dur)
	gap := k.ExpDuration(k.cfg.Noise.MeanInterval)
	k.armSlotAfter(c, slotNoise, gap, nil, 0)
}

// stealCPUTime models an interrupt or background activity occupying CPU c
// for d: if a thread is mid-compute there, its completion is pushed back.
func (k *Kernel) stealCPUTime(c *cpu, d time.Duration) {
	if d <= 0 {
		return
	}
	th := c.th
	if th == nil || th.state != StateRunning || !th.workPending {
		return
	}
	k.accrueWork(th)
	th.runStart = k.now.Add(d)
	k.scheduleWork(th)
}
