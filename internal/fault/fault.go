// Package fault is the deterministic, seed-driven fault-injection layer.
// A Plan describes which faults a round may suffer — operation-level errno
// failures in internal/fs, EINTR-style interruptions of semaphore waits in
// internal/sim, and mid-round kills (with optional restart) of the victim
// or attacker process — and NewInjector instantiates it for one round with
// a dedicated RNG stream.
//
// Determinism: the injector's stream is seeded from (Plan.Seed, roundSeed)
// through a splitmix64-style mixer and is consumed only by the injector's
// own decisions, in simulation order. It never touches the kernel RNG, the
// per-round scheduling stream, or the noise stream, so (a) two runs of the
// same round with the same plan make identical injections, and (b) a plan
// with every rate at zero consumes nothing and is bit-identical to running
// without a plan at all. See DESIGN.md's "Fault injection" chapter.
package fault

import (
	"math/rand"
	"time"

	"tocttou/internal/fs"
	"tocttou/internal/sim"
)

// DefaultKillWindow bounds the virtual-time instant of an injected kill
// when Plan.KillWindow is zero: kills land uniformly in [0, window).
const DefaultKillWindow = 200 * time.Millisecond

// DefaultSemIntrDelay is the virtual time between a thread blocking on an
// interruptible semaphore wait and the injected signal delivery, when
// Plan.SemIntrDelay is zero.
const DefaultSemIntrDelay = 50 * time.Microsecond

// Plan describes the faults one round may suffer. The zero value injects
// nothing and is exactly equivalent to running without fault injection.
type Plan struct {
	// Seed perturbs the per-round fault stream; rounds of one campaign
	// additionally mix in their own round seed, so every round draws an
	// independent deterministic stream.
	Seed int64

	// FSRate is the probability that any single eligible fs operation
	// fails with an injected errno (EIO, and ENOSPC/EMFILE where they fit
	// the operation). Range [0, 1].
	FSRate float64
	// FSOps restricts injection to these operations; empty means every
	// operation is eligible.
	FSOps []fs.Op

	// SemIntrRate is the probability that a blocked interruptible
	// semaphore wait has an EINTR-style interruption scheduled against it.
	// Range [0, 1].
	SemIntrRate float64
	// SemIntrDelay is the virtual time after blocking at which the
	// interruption is delivered (0 = DefaultSemIntrDelay). Waits that win
	// the semaphore earlier are not interrupted.
	SemIntrDelay time.Duration

	// KillVictimRate and KillAttackerRate are the per-round probabilities
	// that the victim (resp. attacker) process is killed mid-round, at a
	// uniform instant within KillWindow. Range [0, 1].
	KillVictimRate   float64
	KillAttackerRate float64
	// KillWindow bounds the kill instant (0 = DefaultKillWindow).
	KillWindow time.Duration
	// Restart relaunches a killed victim from the top of its program
	// after RestartDelay, modeling a supervised daemon; a killed attacker
	// always stays dead.
	Restart bool
	// RestartDelay is the virtual time between the kill and the restart
	// (0 = DefaultKillWindow/10).
	RestartDelay time.Duration
}

// Enabled reports whether the plan can inject anything at all. A disabled
// plan never allocates an injector, keeping fault-free rounds on the exact
// pre-fault code path.
func (p Plan) Enabled() bool {
	return p.FSRate > 0 || p.SemIntrRate > 0 || p.KillVictimRate > 0 || p.KillAttackerRate > 0
}

// Validate rejects out-of-range rates with a descriptive error.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"FSRate", p.FSRate},
		{"SemIntrRate", p.SemIntrRate},
		{"KillVictimRate", p.KillVictimRate},
		{"KillAttackerRate", p.KillAttackerRate},
	} {
		if r.v < 0 || r.v > 1 {
			return &RateError{Name: r.name, Value: r.v}
		}
	}
	return nil
}

// RateError reports a fault rate outside [0, 1].
type RateError struct {
	Name  string
	Value float64
}

// Error implements error.
func (e *RateError) Error() string {
	return "fault: " + e.Name + " must be in [0, 1]"
}

// Counters tallies the faults one round actually delivered. The struct is
// comparable and additive so campaign aggregation can fold it like every
// other per-round metric.
type Counters struct {
	// FSErrors counts operations failed with an injected errno.
	FSErrors int64
	// SemInterrupts counts EINTR interruptions actually delivered to
	// blocked semaphore waits (armed-but-stale deliveries do not count).
	SemInterrupts int64
	// Kills counts processes killed mid-round.
	Kills int64
	// Restarts counts victim relaunches after a kill.
	Restarts int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.FSErrors += o.FSErrors
	c.SemInterrupts += o.SemInterrupts
	c.Kills += o.Kills
	c.Restarts += o.Restarts
}

// Total returns the number of faults of any kind.
func (c Counters) Total() int64 {
	return c.FSErrors + c.SemInterrupts + c.Kills + c.Restarts
}

// Injector is one round's instantiation of a Plan: a dedicated RNG stream
// plus the delivered-fault tally. It implements fs.FaultHook and
// sim.Interrupter. Not safe for concurrent use — one injector serves
// one round at a time on one worker, like the kernel it rides in.
type Injector struct {
	plan   Plan
	rng    *rand.Rand
	opMask uint32

	// Counters tallies what this round's injections delivered.
	Counters Counters
}

var (
	_ fs.FaultHook    = (*Injector)(nil)
	_ sim.Interrupter = (*Injector)(nil)
)

// NewInjector instantiates the plan for one round. The stream seed mixes
// the plan seed with the round seed so every (plan, round) pair draws an
// independent sequence, disjoint by construction from the kernel's
// scheduling stream (a separate generator that never shares state).
func (p Plan) NewInjector(roundSeed int64) *Injector {
	in := &Injector{}
	in.Reset(p, roundSeed)
	return in
}

// Reset re-arms the injector for a new round exactly as
// p.NewInjector(roundSeed) would build it — plan, operation mask, zeroed
// counters and a restarted stream — reusing its generator, so a worker
// that keeps one injector allocates nothing per round.
func (in *Injector) Reset(p Plan, roundSeed int64) {
	var mask uint32
	if len(p.FSOps) == 0 {
		mask = ^uint32(0)
	} else {
		for _, op := range p.FSOps {
			mask |= 1 << uint(op)
		}
	}
	in.plan, in.opMask, in.Counters = p, mask, Counters{}
	seed := mixSeed(p.Seed, roundSeed)
	if in.rng == nil {
		in.rng = sim.NewRand(seed)
	} else {
		in.rng.Seed(seed)
	}
}

// mixSeed combines the plan and round seeds through a splitmix64 finalizer
// so nearby round seeds (which differ by a fixed stride) still produce
// uncorrelated fault streams.
func mixSeed(planSeed, roundSeed int64) int64 {
	z := uint64(planSeed)*0x9E3779B97F4A7C15 + uint64(roundSeed)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// InjectOp implements fs.FaultHook: with probability FSRate an eligible
// operation fails with an errno chosen for the operation kind. The
// injected failure is traced as an EvFault event and counted.
func (in *Injector) InjectOp(t *sim.Task, op fs.Op, path string) error {
	if in.plan.FSRate <= 0 || in.opMask&(1<<uint(op)) == 0 {
		return nil
	}
	if in.rng.Float64() >= in.plan.FSRate {
		return nil
	}
	errno := in.errnoFor(op)
	in.Counters.FSErrors++
	t.Trace(sim.Event{Kind: sim.EvFault, Label: "fs:" + errno.Error(), Path: path, Arg: int64(errno)})
	return &fs.PathError{Op: op.String(), Path: path, Err: errno}
}

// errnoFor picks the injected errno for an operation: writes run out of
// space or hit media errors, opens exhaust descriptors or hit media
// errors, everything else is a media error.
func (in *Injector) errnoFor(op fs.Op) fs.Errno {
	switch op {
	case fs.OpWrite, fs.OpCreate:
		if in.rng.Intn(2) == 0 {
			return fs.ENOSPC
		}
		return fs.EIO
	case fs.OpOpen:
		if in.rng.Intn(2) == 0 {
			return fs.EMFILE
		}
		return fs.EIO
	default:
		return fs.EIO
	}
}

// SemBlocked implements sim.Interrupter: with probability SemIntrRate the
// wait gets an interruption scheduled SemIntrDelay into the future.
func (in *Injector) SemBlocked(th *sim.Thread, sem *sim.Sem) (time.Duration, bool) {
	if in.plan.SemIntrRate <= 0 {
		return 0, false
	}
	if in.rng.Float64() >= in.plan.SemIntrRate {
		return 0, false
	}
	d := in.plan.SemIntrDelay
	if d <= 0 {
		d = DefaultSemIntrDelay
	}
	return d, true
}

// SemInterrupted implements sim.Interrupter, counting interruptions that
// were actually delivered.
func (in *Injector) SemInterrupted(th *sim.Thread) { in.Counters.SemInterrupts++ }

// DrawKill decides whether a process with the given per-round kill rate
// dies this round, and at which virtual-time instant. The two RNG draws
// (fire, instant) are consumed only when rate > 0, and the instant draw
// only when the kill fires, so disabling kills leaves the stream for the
// other fault kinds unchanged.
func (in *Injector) DrawKill(rate float64) (time.Duration, bool) {
	if rate <= 0 {
		return 0, false
	}
	if in.rng.Float64() >= rate {
		return 0, false
	}
	window := in.plan.KillWindow
	if window <= 0 {
		window = DefaultKillWindow
	}
	return time.Duration(in.rng.Int63n(int64(window))), true
}

// RestartDelayOrDefault returns the plan's restart delay with the default
// applied.
func (in *Injector) RestartDelayOrDefault() time.Duration {
	if in.plan.RestartDelay > 0 {
		return in.plan.RestartDelay
	}
	return DefaultKillWindow / 10
}
