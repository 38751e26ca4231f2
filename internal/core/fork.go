package core

import (
	"reflect"
	"time"

	"tocttou/internal/fault"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/sim"
	"tocttou/internal/userland"
)

// Prefix forking. Every round of a sweep point shares an identical setup
// prefix — machine config, fixture tree, process registrations, thread
// bodies — and diverges only at the first random draw. A reusable worker
// state therefore boots the first round of a point through bootRound, the
// one boot every round uses, and snapshots that boot; every later round is
// stamped out of the captured images: sim.Kernel.Fork replays the boot's
// registrations onto recycled thread shells and fs.FS.Fork restores the
// fixture tree in place, skipping the per-round fixture build,
// process/thread construction, and goroutine creation entirely.
//
// Equivalence to a booted round rests on two things: there is one boot
// function, and Kernel.Fork/FS.Fork replay exactly what it registered and
// built, in order. The only sequencing difference — the victim's startup
// draw happens after the replayed spawns instead of before them — is
// invisible because Spawn consumes sequence numbers but never the kernel
// RNG, so the startup draw is the round's first RNG use either way.

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
// both boot every round and never snapshot.
func forkable(sc Scenario) bool {
	return sc.Chooser == nil && sc.NewGuard == nil &&
		comparableProg(sc.Victim) && comparableProg(sc.Attacker)
}

// prefixState records the round a context last booted or forked — its
// processes, images, env and cells — and, while valid, the snapshot of a
// boot with signature sig. The spawned thread bodies and the exit hook
// read their per-round inputs through this struct, so the closures
// captured at boot stay valid for every forked round.
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

	cells roundCells
}

// roundCells carries the values that change from round to round but are
// read by the boot-captured closures.
type roundCells struct {
	startup     time.Duration
	victimErr   error
	attackerErr error
	// faultProc and restart are armFaultKills' results, nil unless the
	// round's fault plan drew a kill.
	faultProc *sim.Process
	restart   *faultRestart
}

// hogBody is the load-thread body: a pure CPU burner in 200µs slices,
// capture-free so every boot and fork shares it.
func hogBody(t *sim.Task) {
	for !t.Killed() {
		t.Compute(200 * time.Microsecond)
	}
}

// fork stamps this round out of the captured prefix in place of a boot.
func (px *prefixState) fork(sc Scenario, k *sim.Kernel, f *fs.FS, tracer sim.Tracer, inj *fault.Injector) {
	var intr sim.Interrupter
	var hook fs.FaultHook
	if inj != nil {
		intr = inj
		hook = inj
	}
	k.Fork(px.kimg, sim.ForkConfig{Seed: sc.Seed, Tracer: tracer, Interrupter: intr})
	f.Fork(px.fimg, hook)
	// The replay may have moved the registrations onto pooled shells
	// (always on the first fork after a boot); re-resolve the prefix's
	// process handles from registration order. The captured closures read
	// these through px, so they follow automatically.
	px.victimProc = k.Process(0)
	px.attackerProc = k.Process(1)
	if sc.LoadThreads > 0 {
		px.loadProc = k.Process(2)
	}
	px.victimImg.Reset(sc.Machine.TrapCost, true)
	px.attackerImg.Reset(sc.Machine.TrapCost, false)
	px.cells = roundCells{startup: startupDelay(sc, k)}
}
