// Package core orchestrates TOCTTOU attack experiments: it assembles a
// simulated machine, file system, victim, and attacker into a round,
// runs rounds into campaigns, and measures the paper's quantities
// (success rate, L, D, window length) from the traces.
//
// This is the library's primary entry point: construct a Scenario, then
// call RunRound for a single traced race or RunCampaign for statistics.
package core

import (
	"errors"
	"fmt"
	"time"

	"tocttou/internal/fault"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/sim"
	"tocttou/internal/stats"
	"tocttou/internal/trace"
	"tocttou/internal/userland"
)

// Paths is the round's file-system fixture layout.
type Paths struct {
	// Home is the attacker's home directory (attacker-owned, mode 0755).
	Home string
	// Target is the contested file the victim edits (attacker-owned).
	Target string
	// Backup is the victim's backup name for the original.
	Backup string
	// Temp is gedit's scratch file.
	Temp string
	// Passwd is the privileged file (root-owned); a round succeeds when
	// its owner becomes the attacker.
	Passwd string
	// Dummy is attacker v2's warm-up path.
	Dummy string
	// PasswdSize is the privileged file's size.
	PasswdSize int64
}

// DefaultPaths returns the standard fixture.
func DefaultPaths() Paths {
	return Paths{
		Home:       "/home/alice",
		Target:     "/home/alice/report.txt",
		Backup:     "/home/alice/report.txt~",
		Temp:       "/home/alice/.goutputstream-report",
		Passwd:     "/etc/passwd",
		Dummy:      "/home/alice/dummy",
		PasswdSize: 2048,
	}
}

// Scenario fully describes an experiment configuration.
type Scenario struct {
	// Machine is the calibrated hardware/OS profile.
	Machine machine.Profile
	// Victim runs as root; Attacker runs as the normal user.
	Victim   prog.Program
	Attacker prog.Program
	// UseSyscall names the victim call that closes the race for L/D
	// analysis: "chown" for vi's pair, "chmod" for gedit's (§6.1).
	UseSyscall string
	// FileSize is the edited document's size in bytes.
	FileSize int64
	// VictimStartupMax bounds the uniform pre-save delay modeling editor
	// activity before the save. Zero selects a default: one quantum on a
	// uniprocessor (uniform window phase), 2ms on multiprocessors.
	VictimStartupMax time.Duration
	// AttackerUID and AttackerGID identify the normal user (default
	// 1000/1000 when zero).
	AttackerUID int
	AttackerGID int
	// Seed makes the round deterministic.
	Seed int64
	// Trace enables event collection (needed for L/D and timelines).
	Trace bool
	// TrackContent stores file bytes in the simulated FS.
	TrackContent bool
	// UnsynchronizedLookups forwards the fs ablation knob of the same
	// name (DESIGN.md decision 3); for ablation benchmarks only.
	UnsynchronizedLookups bool
	// LoadThreads spawns that many CPU-bound background threads,
	// modeling system load: on a loaded machine the attacker competes
	// for the CPU freed by a suspended victim — Equation 1's
	// P(attack scheduled | victim suspended) term.
	LoadThreads int
	// AttackerNice sets the attacker thread's scheduling priority
	// (lower wins). The paper's §3.2 notes priority as one of the
	// factors behind P(attack scheduled).
	AttackerNice int
	// SuccessCheck overrides the success criterion. The default reports
	// success when the privileged file's owner became the attacker; the
	// sendmail-style append attack instead checks for injected content.
	SuccessCheck func(f *fs.FS, p Paths, attackerUID int) bool
	// NewGuard optionally builds a kernel defense for each round (see
	// internal/defense). A fresh guard per round keeps campaign rounds
	// independent and parallel-safe.
	NewGuard func() fs.Guard
	// Chooser, when non-nil, replaces every stochastic element of the
	// round with an explicit choice point: the victim's startup phase
	// (see PhaseSlots), dispatch ties, semaphore wake order, storage
	// stalls (fixed median duration, bounded by StallBound), and
	// background noise (see NoiseSlots). Implementations must be safe
	// for concurrent use when the scenario runs in a campaign
	// (sim.RandomChooser and other stateless choosers are).
	Chooser sim.Chooser
	// PhaseSlots discretizes the victim's uniform startup delay into
	// that many equally likely slots (midpoints of [0, VictimStartupMax))
	// when a Chooser is set. Zero keeps the continuous RNG draw.
	PhaseSlots int
	// NoiseSlots forwards the bounded noise-injection model to the
	// kernel when a Chooser is set (see sim.NoiseSlotConfig).
	NoiseSlots sim.NoiseSlotConfig
	// StallBound caps chooser-driven storage stalls per round
	// (sim.Config.StallBound); 0 = unbounded.
	StallBound int
	// DisableCoalesce forces every round onto the fully stepped event-loop
	// path (sim.Config.DisableCoalesce), bypassing the stretch coalescing
	// fast-forward. Outcomes are bit-identical either way — the
	// equivalence suite flips this knob to prove it.
	DisableCoalesce bool
	// Horizon, when positive, truncates the round at that virtual time
	// and evaluates the outcome as-is (the attack either already landed
	// or it lost). Exploration uses it to bound the schedule tree of
	// loaded scenarios, where delay branches otherwise stretch rounds —
	// and stack choice points — without limit.
	Horizon time.Duration
	// Faults, when enabled, arms the deterministic fault-injection plan
	// for every round: injected fs errnos, EINTR-style semaphore-wait
	// interruptions, and mid-round kills (see internal/fault). A disabled
	// plan (the zero value) leaves the round on the exact fault-free code
	// path and consumes no randomness.
	Faults fault.Plan
	// Watchdog, when positive, aborts any round that is still running
	// after that much virtual time and reports a diagnostic error naming
	// the seed — catching runaway rounds (a victim retry loop that never
	// converges, say) long before the kernel's 10-minute MaxTime default.
	// Ignored when Horizon is set: a horizon already bounds the round and
	// evaluates the truncated outcome instead of failing.
	Watchdog time.Duration
	// Paths overrides the fixture layout when non-zero.
	Paths *Paths
}

func (sc Scenario) withDefaults() Scenario {
	if sc.AttackerUID == 0 {
		sc.AttackerUID = 1000
	}
	if sc.AttackerGID == 0 {
		sc.AttackerGID = 1000
	}
	if sc.UseSyscall == "" {
		sc.UseSyscall = "chown"
	}
	if sc.VictimStartupMax == 0 {
		if sc.Machine.CPUs == 1 {
			sc.VictimStartupMax = sc.Machine.Quantum
		} else {
			sc.VictimStartupMax = 2 * time.Millisecond
		}
	}
	if sc.Paths == nil {
		sc.Paths = &defaultPaths
	}
	return sc
}

// defaultPaths backs withDefaults' nil-Paths case so defaulting a scenario
// does not allocate per round. Nothing in the tree writes through a
// Scenario's Paths pointer; the shared value is effectively immutable.
var defaultPaths = DefaultPaths()

// Round is the outcome of one simulated race.
type Round struct {
	// Success reports whether the victim's chown landed on the
	// privileged file — the attacker owns /etc/passwd.
	Success bool
	// LD carries the L/D measurement (zero unless the scenario traced).
	LD trace.LDResult
	// Window is the vulnerability window length, if observed.
	Window time.Duration
	// WindowOK reports whether the window was observed (requires Trace).
	WindowOK bool
	// VictimSuspended reports whether the victim lost its CPU inside the
	// vulnerability window — Equation 1's P(victim suspended) event,
	// measured (requires Trace and an observed window).
	VictimSuspended bool
	// VictimErr and AttackerErr record program-level errors (a victim's
	// chown failing because the attacker raced poorly, etc.). They do
	// not invalidate the round.
	VictimErr   error
	AttackerErr error
	// Kernel is the simulated kernel's counter block for the round:
	// dispatches, preemptions, semaphore contention, traps, interrupt and
	// noise occupancy, and per-CPU busy time. Always populated — the
	// counters are maintained inline by the kernel, tracer or not.
	Kernel sim.KernelStats
	// Events is the raw trace when tracing was enabled.
	Events []sim.Event
	// VictimPID and AttackerPID identify the processes in the trace.
	VictimPID   int32
	AttackerPID int32
	// End is the virtual time at which the round completed.
	End sim.Time
	// Faults tallies the injected faults the round actually delivered
	// (all-zero unless the scenario armed a fault plan).
	Faults fault.Counters
}

// RunRound executes one seeded race and reports its outcome.
func RunRound(sc Scenario) (Round, error) { return runRound(sc, nil) }

// roundState is a reusable per-worker simulation context: the kernel, the
// file system, and the trace buffer survive across rounds so a campaign's
// steady state allocates almost nothing per round. A nil *roundState means
// "build everything fresh" (the RunRound path). Reuse changes no outcome:
// sim.Kernel.Reset and fs.FS.Reset restore the exact observable state of
// freshly constructed instances.
type roundState struct {
	k      *sim.Kernel
	f      *fs.FS
	tracer sim.SliceTracer
	// prefix holds the round's boot records — processes, images, env,
	// cells — and, while valid, the snapshot forkable rounds of the same
	// prefix signature fork (see fork.go).
	prefix prefixState
	// inj is the context's fault injector, re-armed in place each round
	// that has a fault plan.
	inj fault.Injector
}

// release lets go of the context's forked kernel: Drain makes its parked
// thread shells exit, so nothing outlives the context but garbage.
func (st *roundState) release() {
	if st.k != nil {
		st.k.Drain()
	}
}

// runRound executes one round. A forkable round on a reusable context
// whose captured prefix has the same signature forks it; every other round
// boots through bootRound, and a forkable one then snapshots that boot for
// the rounds after it. A nil context (RunRound) boots on a fresh one and
// never snapshots. Booted and forked rounds share everything after.
func runRound(sc Scenario, st *roundState) (Round, error) {
	sc = sc.withDefaults()
	if sc.Victim == nil || sc.Attacker == nil {
		return Round{}, fmt.Errorf("core: scenario requires a victim and an attacker")
	}
	snapshot := st != nil && forkable(sc)
	if st == nil {
		st = &roundState{}
	}
	var tracer *sim.SliceTracer
	var simTracer sim.Tracer
	if sc.Trace {
		st.tracer.Reset()
		tracer = &st.tracer
		simTracer = tracer
	}
	// The fault injector rides the per-round configs: its stream is its
	// own (mixed from the plan seed and the round seed), so arming it
	// perturbs neither the kernel RNG nor any scheduling decision.
	var inj *fault.Injector
	if sc.Faults.Enabled() {
		if err := sc.Faults.Validate(); err != nil {
			return Round{}, fmt.Errorf("core: fault plan: %w", err)
		}
		st.inj.Reset(sc.Faults, sc.Seed)
		inj = &st.inj
	}
	px := &st.prefix
	sig := sigOf(sc)
	if snapshot && px.valid && px.sig == sig {
		px.fork(sc, st.k, st.f, simTracer, inj)
	} else {
		bootRound(sc, st, simTracer, inj)
		if snapshot {
			kimg, err := st.k.Snapshot()
			if err != nil {
				return Round{}, fmt.Errorf("core: prefix snapshot: %w", err)
			}
			px.kimg, px.fimg = kimg, st.f.Snapshot()
			px.sig, px.valid = sig, true
		}
	}
	k, f := st.k, st.f
	// The call is gated on inj so the fault-free path never pays the
	// heap copies of the scenario and env captured by faultd's closures.
	if inj != nil {
		px.cells.faultProc, px.cells.restart = armFaultKills(k, f, sc, inj,
			px.victimProc, px.attackerProc, px.victimImg, px.env, &px.cells.victimErr)
	}
	if err := runKernel(sc, k); err != nil {
		return Round{}, err
	}
	return collectRound(sc, k, f, tracer, inj, px.paths,
		px.victimProc, px.attackerProc, px.cells.victimErr, px.cells.attackerErr)
}

// bootRound boots one round on st's kernel and file system, building them
// on first use: kernel and fs config, guard, fixture tree, the victim and
// attacker processes, the startup-phase draw, the thread bodies and the
// load hogs, and the process-exit hook. It records the round's processes,
// images, env and cells in st.prefix and clears prefix.valid, because
// those records now belong to this round; only runRound's snapshot of this
// boot makes them a prefix later rounds may fork. The thread bodies and
// the exit hook read their per-round inputs through the prefix, so they
// stay valid for every fork.
func bootRound(sc Scenario, st *roundState, tracer sim.Tracer, inj *fault.Injector) {
	px := &st.prefix
	px.valid = false
	simCfg := sc.Machine.SimConfig(sc.Seed, tracer)
	simCfg.Chooser = sc.Chooser
	simCfg.NoiseSlots = sc.NoiseSlots
	simCfg.StallBound = sc.StallBound
	simCfg.DisableCoalesce = sc.DisableCoalesce
	if sc.Horizon > 0 {
		simCfg.MaxTime = sc.Horizon
	} else if sc.Watchdog > 0 {
		simCfg.MaxTime = sc.Watchdog
	}
	fsCfg := fs.Config{
		Latency:               sc.Machine.Latency,
		TrackContent:          sc.TrackContent,
		UnsynchronizedLookups: sc.UnsynchronizedLookups,
	}
	if inj != nil {
		simCfg.Interrupter = inj
		fsCfg.Faults = inj
	}
	if st.k == nil {
		st.k = sim.New(simCfg)
		st.f = fs.New(fsCfg)
	} else {
		st.k.Reset(simCfg)
		st.f.Reset(fsCfg)
	}
	k, f := st.k, st.f
	if sc.NewGuard != nil {
		f.SetGuard(sc.NewGuard())
	}
	px.paths = *sc.Paths
	buildFixture(f, px.paths, sc)
	// The thread bodies capture this local rather than reading px.env: a
	// call passing a struct field this large by value gives the closure a
	// frame big enough that every fresh thread goroutine grows its stack.
	env := prog.Env{
		Target:   px.paths.Target,
		Backup:   px.paths.Backup,
		Temp:     px.paths.Temp,
		Passwd:   px.paths.Passwd,
		Dummy:    px.paths.Dummy,
		FileSize: sc.FileSize,
		OwnerUID: sc.AttackerUID,
		OwnerGID: sc.AttackerGID,
		Machine:  sc.Machine,
	}
	px.env = env
	px.victimProc = k.NewProcess(sc.Victim.Name(), 0, 0)
	px.attackerProc = k.NewProcess(sc.Attacker.Name(), sc.AttackerUID, sc.AttackerGID)
	if px.victimImg == nil {
		px.victimImg = userland.NewImage(sc.Machine.TrapCost, true)
		px.attackerImg = userland.NewImage(sc.Machine.TrapCost, false)
		px.victimLibc = &userland.Libc{}
		px.attackerLibc = &userland.Libc{}
	} else {
		px.victimImg.Reset(sc.Machine.TrapCost, true)
		px.attackerImg.Reset(sc.Machine.TrapCost, false)
	}
	px.cells = roundCells{startup: startupDelay(sc, k)}
	victim, attacker := sc.Victim, sc.Attacker
	k.Spawn(px.victimProc, "victim", func(t *sim.Task) {
		// Editor activity before the save: randomizes the window's phase
		// relative to scheduler quanta.
		t.Compute(px.cells.startup)
		px.cells.victimErr = victim.Run(px.victimLibc.Rebind(t, f, px.victimImg), env)
	})
	attackerThread := k.Spawn(px.attackerProc, "attacker", func(t *sim.Task) {
		px.cells.attackerErr = attacker.Run(px.attackerLibc.Rebind(t, f, px.attackerImg), env)
	})
	attackerThread.SetNice(sc.AttackerNice)
	px.loadProc = nil
	if sc.LoadThreads > 0 {
		px.loadProc = k.NewProcess("load", 2000, 2000)
		for i := 0; i < sc.LoadThreads; i++ {
			hog := k.Spawn(px.loadProc, hogName(i), hogBody)
			// The hogs run identical closures, so exploration may merge
			// dispatch picks among hogs with equal remaining compute.
			hog.SetScheduleClass(1)
		}
	}
	k.OnProcessExit(func(proc *sim.Process) {
		c := &px.cells
		if proc != px.victimProc || c.restart != nil && c.restart.pending {
			// An injected crash with a supervised restart pending is not
			// the end: the round continues once the victim relaunches.
			return
		}
		// The save completed (or the victim died unsupervised); the
		// window (if any) is closed.
		k.KillProcess(px.attackerProc)
		if px.loadProc != nil {
			k.KillProcess(px.loadProc)
		}
		if c.faultProc != nil {
			k.KillProcess(c.faultProc)
		}
	})
}

// startupDelay draws the victim's pre-save delay, the round's first use
// of the kernel's randomness. With a Chooser and PhaseSlots it is a
// uniform pick among slot midpoints, so exploration enumerates the phases
// exactly and a RandomChooser campaign samples the identical distribution.
func startupDelay(sc Scenario, k *sim.Kernel) time.Duration {
	if sc.Chooser != nil && sc.PhaseSlots > 0 {
		slot := k.ChooseIndex(sim.ChoosePhase, sc.PhaseSlots, nil)
		return time.Duration(int64(2*slot+1) * int64(sc.VictimStartupMax) / int64(2*sc.PhaseSlots))
	}
	return stats.UniformDuration(k.RNG(), 0, sc.VictimStartupMax)
}

// runKernel runs the booted round to completion and classifies the
// kernel's termination error under the scenario's horizon/watchdog policy.
func runKernel(sc Scenario, k *sim.Kernel) error {
	err := k.Run()
	if err == nil {
		return nil
	}
	// Hitting a configured horizon is a truncated round, not a failure;
	// hitting the watchdog is a diagnosed runaway.
	switch {
	case sc.Horizon > 0 && errors.Is(err, sim.ErrMaxTime):
		// Truncated round: evaluate the outcome as-is.
		return nil
	case sc.Watchdog > 0 && errors.Is(err, sim.ErrMaxTime):
		return fmt.Errorf(
			"core: watchdog: round (seed %d, victim %q, attacker %q) still running after %v of virtual time: %w",
			sc.Seed, sc.Victim.Name(), sc.Attacker.Name(), sc.Watchdog, err)
	default:
		return fmt.Errorf("core: round simulation: %w", err)
	}
}

// collectRound assembles the Round outcome after the kernel has finished.
func collectRound(sc Scenario, k *sim.Kernel, f *fs.FS, tracer *sim.SliceTracer,
	inj *fault.Injector, p Paths, victimProc, attackerProc *sim.Process,
	victimErr, attackerErr error) (Round, error) {
	round := Round{
		VictimErr:   victimErr,
		AttackerErr: attackerErr,
		VictimPID:   int32(victimProc.PID),
		AttackerPID: int32(attackerProc.PID),
		End:         k.Now(),
		Kernel:      k.Stats(),
	}
	if inj != nil {
		round.Faults = inj.Counters
	}
	if sc.SuccessCheck != nil {
		round.Success = sc.SuccessCheck(f, p, sc.AttackerUID)
	} else {
		info, err := f.LookupInfo(p.Passwd)
		if err != nil {
			return Round{}, fmt.Errorf("core: fixture corrupted, %s vanished: %w", p.Passwd, err)
		}
		round.Success = info.UID == sc.AttackerUID
	}
	if tracer != nil {
		round.Events = tracer.Events
		log := trace.New(tracer.Events)
		round.LD = trace.MeasureLD(log, trace.LDParams{
			VictimPID:   round.VictimPID,
			AttackerPID: round.AttackerPID,
			Target:      p.Target,
			UseSyscall:  sc.UseSyscall,
		})
		round.Window, round.WindowOK = log.WindowDuration(round.VictimPID, p.Target, sc.UseSyscall)
		if round.LD.WindowFound && round.LD.T3 > 0 {
			round.VictimSuspended = log.SuspendedInWindow(round.VictimPID, round.LD.T1, round.LD.T3)
		}
	}
	return round, nil
}

// faultRestart coordinates an injected victim kill with its supervised
// restart: while pending, the round's normal process-exit cleanup stands
// down (the victim's death is a crash, not a completed save).
type faultRestart struct{ pending bool }

// armFaultKills draws the round's injected-kill decisions and, when one
// fires, spawns a root "faultd" process whose threads deliver the kills at
// their drawn virtual-time instants. The draws happen in a fixed order
// (victim first, then attacker) so the injector's RNG stream is consumed
// identically on every host. Returns the faultd process (nil when no kill
// fires — the common case, which leaves the round's process set on the
// exact fault-free path) and the restart coordinator (nil unless a
// supervised victim kill is armed); the round's exit hook reads both. Callers gate the call on a
// non-nil injector: the closures below capture sc and env, which moves
// both to the heap in this function's prologue — a cost fault-free rounds
// must not pay.
func armFaultKills(k *sim.Kernel, f *fs.FS, sc Scenario, inj *fault.Injector,
	victimProc, attackerProc *sim.Process, victimImg *userland.Image,
	env prog.Env, victimErr *error) (*sim.Process, *faultRestart) {
	vAt, vKill := inj.DrawKill(sc.Faults.KillVictimRate)
	aAt, aKill := inj.DrawKill(sc.Faults.KillAttackerRate)
	if !vKill && !aKill {
		return nil, nil
	}
	faultProc := k.NewProcess("faultd", 0, 0)
	var restart *faultRestart
	if vKill {
		if sc.Faults.Restart {
			restart = &faultRestart{}
		}
		rs := restart
		k.Spawn(faultProc, "faultd-victim", func(t *sim.Task) {
			t.Sleep(vAt)
			if !victimProc.Alive() {
				return // the save already completed; nothing left to kill
			}
			if rs != nil {
				rs.pending = true
			}
			inj.Counters.Kills++
			t.Trace(sim.Event{Kind: sim.EvFault, Label: "kill:victim"})
			k.KillProcess(victimProc)
			if rs == nil {
				return // unsupervised crash: the exit hook ends the round
			}
			t.Sleep(inj.RestartDelayOrDefault())
			inj.Counters.Restarts++
			t.Trace(sim.Event{Kind: sim.EvFault, Label: "restart:victim"})
			k.Spawn(victimProc, "victim", func(t *sim.Task) {
				*victimErr = sc.Victim.Run(userland.Bind(t, f, victimImg), env)
			})
			rs.pending = false
		})
	}
	if aKill {
		k.Spawn(faultProc, "faultd-attacker", func(t *sim.Task) {
			t.Sleep(aAt)
			if !attackerProc.Alive() {
				return
			}
			inj.Counters.Kills++
			t.Trace(sim.Event{Kind: sim.EvFault, Label: "kill:attacker"})
			k.KillProcess(attackerProc)
		})
	}
	return faultProc, restart
}

// hogNames caches debug names for the usual handful of load threads so a
// loaded round does not Sprintf per spawned hog.
var hogNames = [...]string{
	"hog0", "hog1", "hog2", "hog3", "hog4", "hog5", "hog6", "hog7",
	"hog8", "hog9", "hog10", "hog11", "hog12", "hog13", "hog14", "hog15",
}

func hogName(i int) string {
	if i < len(hogNames) {
		return hogNames[i]
	}
	return fmt.Sprintf("hog%d", i)
}

// buildFixture populates the file system for a round.
func buildFixture(f *fs.FS, p Paths, sc Scenario) {
	f.MustMkdirAll("/etc", 0o755, 0, 0)
	f.MustWriteFile(p.Passwd, p.PasswdSize, 0o644, 0, 0)
	f.MustMkdirAll(p.Home, 0o755, sc.AttackerUID, sc.AttackerGID)
	f.MustWriteFile(p.Target, sc.FileSize, 0o644, sc.AttackerUID, sc.AttackerGID)
	f.MustMkdirAll("/tmp", 0o777|fs.ModeSticky, 0, 0)
}
