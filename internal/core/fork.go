package core

import (
	"fmt"
	"reflect"
	"time"

	"tocttou/internal/fault"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/sim"
	"tocttou/internal/stats"
	"tocttou/internal/userland"
)

// Prefix forking. Every round of a sweep point shares an identical setup
// prefix — machine config, fixture tree, process registrations, thread
// bodies — and diverges only at the first random draw. A reusable worker
// state therefore builds that prefix once (the first round of a point runs
// it classically and snapshots the boot), and stamps every later round out
// of the captured images: sim.Kernel.Fork replays the boot registrations
// onto recycled thread shells and fs.FS.Fork restores the fixture tree in
// place, skipping the per-round fixture build, process/thread construction,
// and goroutine creation entirely.
//
// Equivalence to the classic path is structural, not re-proved per round:
// the fork replays the same registration calls in the same order, and the
// only sequencing difference — the victim's startup draw happens after the
// replayed spawns instead of before them — is invisible because Spawn
// consumes sequence numbers but never the kernel RNG, so the startup draw
// is the round's first RNG use either way.

// prefixSig is the identity of a round's setup prefix: two scenarios with
// equal signatures boot bit-identical kernels and file systems. Everything
// per-round — Seed, Trace, Faults, SuccessCheck, UseSyscall — is excluded.
// Paths is compared by value (withDefaults materializes a fresh pointer
// per round). The struct must stay comparable.
type prefixSig struct {
	machine      machine.Profile
	victim       prog.Program
	attacker     prog.Program
	fileSize     int64
	startupMax   time.Duration
	uid, gid     int
	trackContent bool
	unsync       bool
	loadThreads  int
	attackerNice int
	noiseSlots   sim.NoiseSlotConfig
	stallBound   int
	noCoalesce   bool
	horizon      time.Duration
	watchdog     time.Duration
	paths        Paths
}

// sigOf extracts the prefix signature of a defaulted scenario.
func sigOf(sc Scenario) prefixSig {
	return prefixSig{
		machine:      sc.Machine,
		victim:       sc.Victim,
		attacker:     sc.Attacker,
		fileSize:     sc.FileSize,
		startupMax:   sc.VictimStartupMax,
		uid:          sc.AttackerUID,
		gid:          sc.AttackerGID,
		trackContent: sc.TrackContent,
		unsync:       sc.UnsynchronizedLookups,
		loadThreads:  sc.LoadThreads,
		attackerNice: sc.AttackerNice,
		noiseSlots:   sc.NoiseSlots,
		stallBound:   sc.StallBound,
		noCoalesce:   sc.DisableCoalesce,
		horizon:      sc.Horizon,
		watchdog:     sc.Watchdog,
		paths:        *sc.Paths,
	}
}

// comparableProg reports whether the program's dynamic type supports ==
// (signature comparison would panic otherwise). All in-tree programs are
// pointer-typed and qualify.
func comparableProg(p prog.Program) bool {
	t := reflect.TypeOf(p)
	return t != nil && t.Comparable()
}

// forkable reports whether the round can use the prefix-forking path.
// Guard rounds must rebuild per round (the guard observes the fixture
// build), and chooser rounds may resolve choice points during boot, so
// both provably bypass forking and run the classic path.
func forkable(sc Scenario, st *roundState) bool {
	return st != nil && sc.Chooser == nil && sc.NewGuard == nil &&
		comparableProg(sc.Victim) && comparableProg(sc.Attacker)
}

// prefixState is the captured setup prefix a worker reuses across the
// rounds of a sweep point. The spawned thread bodies read their per-round
// inputs through cells on this struct, so the closures captured at build
// time stay valid for every forked round.
type prefixState struct {
	valid bool
	sig   prefixSig

	kimg *sim.Image
	fimg *fs.Image

	victimProc   *sim.Process
	attackerProc *sim.Process
	loadProc     *sim.Process
	victimImg    *userland.Image
	attackerImg  *userland.Image
	victimLibc   *userland.Libc
	attackerLibc *userland.Libc
	env          prog.Env
	paths        Paths
	exitHook     func(*sim.Process)

	cells roundCells
}

// roundCells carries the values that change from round to round but are
// read by the prefix-captured closures.
type roundCells struct {
	startup     time.Duration
	victimErr   error
	attackerErr error
}

// hogBody is the load-thread body: a pure CPU burner in 200µs slices,
// identical to the classic inline closure but capture-free so the prefix
// image can share it across rounds.
func hogBody(t *sim.Task) {
	for !t.Killed() {
		t.Compute(200 * time.Microsecond)
	}
}

// runPrefixedRound executes one round through the prefix-forking path: the
// first round of a point (or a signature change) boots classically and
// snapshots the boot; every later round forks the snapshot. sc must
// already be defaulted and validated.
func runPrefixedRound(sc Scenario, st *roundState) (Round, error) {
	px := &st.prefix
	var tracer *sim.SliceTracer
	var simTracer sim.Tracer
	if sc.Trace {
		st.tracer.Reset()
		tracer = &st.tracer
		simTracer = tracer
	}
	var inj *fault.Injector
	if sc.Faults.Enabled() {
		if err := sc.Faults.Validate(); err != nil {
			return Round{}, fmt.Errorf("core: fault plan: %w", err)
		}
		inj = st.injector(sc.Faults, sc.Seed)
	}
	sig := sigOf(sc)
	if st.k == nil || !px.valid || px.sig != sig {
		if err := buildPrefix(sc, st, sig, simTracer, inj); err != nil {
			return Round{}, err
		}
	} else {
		k, f := st.k, st.f
		var intr sim.Interrupter
		var hook fs.FaultHook
		if inj != nil {
			intr = inj
			hook = inj
		}
		k.Fork(px.kimg, sim.ForkConfig{Seed: sc.Seed, Tracer: simTracer, Interrupter: intr})
		f.Fork(px.fimg, hook)
		// The replay may have moved the registrations onto pooled shells
		// (always on the first fork after a classic boot); re-resolve the
		// prefix's process handles from registration order. The captured
		// closures read these through px, so they follow automatically.
		px.victimProc = k.Process(0)
		px.attackerProc = k.Process(1)
		if sc.LoadThreads > 0 {
			px.loadProc = k.Process(2)
		}
		px.victimImg.Reset(sc.Machine.TrapCost, true)
		px.attackerImg.Reset(sc.Machine.TrapCost, false)
		px.cells.victimErr, px.cells.attackerErr = nil, nil
		px.cells.startup = stats.UniformDuration(k.RNG(), 0, sc.VictimStartupMax)
	}
	k := st.k
	var faultProc *sim.Process
	var restart *faultRestart
	if inj != nil {
		faultProc, restart = armFaultKills(k, st.f, sc, inj,
			px.victimProc, px.attackerProc, px.victimImg, px.env, &px.cells.victimErr)
	}
	if faultProc == nil {
		k.OnProcessExit(px.exitHook)
	} else {
		k.OnProcessExit(faultExitHook(k, px.victimProc, px.attackerProc, px.loadProc, faultProc, restart))
	}
	if err := runKernel(sc, k); err != nil {
		return Round{}, err
	}
	return collectRound(sc, k, st.f, tracer, inj, px.paths,
		px.victimProc, px.attackerProc, px.cells.victimErr, px.cells.attackerErr)
}

// buildPrefix boots one round classically on the worker's reusable kernel
// and file system — the identical call sequence runRound's classic body
// performs — and captures the boot into the prefix images just before Run.
// The caller then finishes this same round; forked rounds replay the
// captured boot instead.
func buildPrefix(sc Scenario, st *roundState, sig prefixSig, simTracer sim.Tracer, inj *fault.Injector) error {
	px := &st.prefix
	px.valid = false
	simCfg := sc.Machine.SimConfig(sc.Seed, simTracer)
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
	px.paths = *sc.Paths
	buildFixture(f, px.paths, sc)
	px.env = prog.Env{
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
	px.cells.victimErr, px.cells.attackerErr = nil, nil
	// Classic draw order: startup before the spawns. Forked rounds draw
	// after the replayed spawns, which consume no randomness — the draw is
	// the first RNG use either way.
	px.cells.startup = stats.UniformDuration(k.RNG(), 0, sc.VictimStartupMax)
	victim, attacker := sc.Victim, sc.Attacker
	k.Spawn(px.victimProc, "victim", func(t *sim.Task) {
		t.Compute(px.cells.startup)
		px.cells.victimErr = victim.Run(px.victimLibc.Rebind(t, st.f, px.victimImg), px.env)
	})
	attackerThread := k.Spawn(px.attackerProc, "attacker", func(t *sim.Task) {
		px.cells.attackerErr = attacker.Run(px.attackerLibc.Rebind(t, st.f, px.attackerImg), px.env)
	})
	attackerThread.SetNice(sc.AttackerNice)
	px.loadProc = nil
	if sc.LoadThreads > 0 {
		px.loadProc = k.NewProcess("load", 2000, 2000)
		for i := 0; i < sc.LoadThreads; i++ {
			hog := k.Spawn(px.loadProc, hogName(i), hogBody)
			hog.SetScheduleClass(1)
		}
	}
	kimg, err := k.Snapshot()
	if err != nil {
		return fmt.Errorf("core: prefix snapshot: %w", err)
	}
	px.kimg = kimg
	px.fimg = f.Snapshot()
	px.exitHook = func(proc *sim.Process) {
		if proc == px.victimProc {
			k.KillProcess(px.attackerProc)
			if px.loadProc != nil {
				k.KillProcess(px.loadProc)
			}
		}
	}
	px.sig = sig
	px.valid = true
	return nil
}

// faultExitHook is the process-exit hook for rounds with an armed kill
// plan, split out so the forked and classic paths share one definition.
func faultExitHook(k *sim.Kernel, victimProc, attackerProc, loadProc, faultProc *sim.Process, restart *faultRestart) func(*sim.Process) {
	return func(proc *sim.Process) {
		if proc != victimProc {
			return
		}
		if restart != nil && restart.pending {
			// Injected crash with a supervised restart pending: the
			// round continues once the victim relaunches.
			return
		}
		// The save completed (or the victim died unsupervised); the
		// round is over either way.
		k.KillProcess(attackerProc)
		if loadProc != nil {
			k.KillProcess(loadProc)
		}
		k.KillProcess(faultProc)
	}
}
