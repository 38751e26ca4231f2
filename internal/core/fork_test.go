package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tocttou/internal/attack"
	"tocttou/internal/defense"
	"tocttou/internal/fault"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/sim"
	"tocttou/internal/userland"
	"tocttou/internal/victim"
)

// randomForkScenario draws one forkable scenario from the space the sweeps
// and experiments actually exercise: both machine profiles (noisy by
// calibration), both classic victim/attacker programs, varying file sizes,
// load threads, priorities, tracing, and — on some draws — an armed fault
// plan covering fs errnos, EINTR injection, and mid-round kills.
func randomForkScenario(rng *rand.Rand) Scenario {
	sc := Scenario{
		FileSize: int64(50+rng.Intn(400)) << 10,
		Seed:     1000 + rng.Int63n(1_000_000),
	}
	if rng.Intn(2) == 0 {
		sc.Machine = machine.Uniprocessor()
	} else {
		sc.Machine = machine.SMP2()
	}
	if rng.Intn(2) == 0 {
		sc.Victim = victim.NewVi()
		sc.UseSyscall = "chown"
	} else {
		sc.Victim = victim.NewGedit()
		sc.UseSyscall = "chmod"
	}
	if rng.Intn(2) == 0 {
		sc.Attacker = attack.NewV1()
	} else {
		sc.Attacker = attack.NewV2()
	}
	sc.LoadThreads = rng.Intn(3)
	if rng.Intn(2) == 0 {
		sc.AttackerNice = 5
	}
	sc.Trace = rng.Intn(2) == 0
	switch rng.Intn(3) {
	case 0: // fault-free
	case 1:
		sc.Faults = fault.Plan{FSRate: 0.05, SemIntrRate: 0.25}
	case 2:
		sc.Faults = fault.Plan{
			KillVictimRate:   0.4,
			KillAttackerRate: 0.2,
			Restart:          true,
			RestartDelay:     2 * time.Millisecond,
		}
	}
	return sc
}

// bootOnlyVariant turns a forkable scenario into one of the three kinds
// of round that boot on every run and never snapshot: a guard round (the
// §8 defense), a RandomChooser round with discretized startup phases, or
// a round whose victim's type is not comparable.
func bootOnlyVariant(sc Scenario, kind int) Scenario {
	switch kind {
	case 0:
		sc.NewGuard = func() fs.Guard { return defense.New(defense.Enforce) }
	case 1:
		sc.Chooser = sim.RandomChooser{}
		sc.PhaseSlots = 4
	default:
		sc.Victim = funcProgram{inner: sc.Victim}
	}
	return sc
}

// TestForkMatchesReplayProperty is the forking path's equivalence property:
// for every scenario, a round executed by forking a worker's captured
// prefix must be bit-for-bit identical — outcome, counters, errors, trace —
// to the same seed executed on a fresh kernel. On some draws a round that
// cannot fork (bootOnlyVariant) runs on the same context between two
// forkable rounds: it must equal its own fresh run, leave the prefix
// invalid, and the next forkable round must boot and capture it again.
// Run under -race at GOMAXPROCS=1 and 8 by `make race` / CI.
func TestForkMatchesReplayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	// A second stream draws the interleavings, so the forkable scenarios
	// drawn from rng stay the same with or without them.
	mix := rand.New(rand.NewSource(20261018))
	scenarios := 12
	roundsPer := 6
	if testing.Short() {
		scenarios, roundsPer = 4, 3
	}
	same := func(s, r int, sc Scenario, st *roundState) bool {
		t.Helper()
		got, gerr := runRound(sc, st)
		fresh, ferr := RunRound(sc)
		// A round may legitimately fail (e.g. a kill-plan round that
		// trips the virtual-time watchdog); the property is that both
		// paths fail identically.
		if (gerr == nil) != (ferr == nil) || (gerr != nil && gerr.Error() != ferr.Error()) {
			t.Fatalf("scenario %d round %d seed %d: reused-context error %v, fresh error %v",
				s, r, sc.Seed, gerr, ferr)
		}
		if gerr != nil {
			// Production (the sweep engine) never reuses a context
			// after a failed round; start the next one fresh.
			*st = roundState{}
			return false
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("scenario %d round %d seed %d: reused-context round differs from a fresh run\nreused: %+v\nfresh:  %+v",
				s, r, sc.Seed, got, fresh)
		}
		return true
	}
	interleaved := 0
	for s := 0; s < scenarios; s++ {
		sc := randomForkScenario(rng)
		if !forkable(sc) {
			t.Fatalf("scenario %d unexpectedly not forkable", s)
		}
		bootAt, kind := -1, 0
		if mix.Intn(2) == 0 {
			bootAt, kind = 1+mix.Intn(roundsPer-1), mix.Intn(3)
		}
		var st roundState
		base := sc.Seed
		for r := 0; r < roundsPer; r++ {
			sc.Seed = base + int64(r)*SeedStride
			if r == bootAt {
				boot := bootOnlyVariant(sc, kind)
				if forkable(boot.withDefaults()) {
					t.Fatalf("scenario %d round %d: boot-only variant %d is forkable", s, r, kind)
				}
				if same(s, r, boot, &st) {
					if st.prefix.valid {
						t.Fatalf("scenario %d round %d: prefix still valid after a boot-only round (variant %d)", s, r, kind)
					}
					interleaved++
				}
			}
			if !same(s, r, sc, &st) {
				continue
			}
			if r > 0 && !st.prefix.valid {
				t.Fatalf("scenario %d round %d: prefix not captured", s, r)
			}
		}
	}
	t.Logf("%d boot-only rounds interleaved", interleaved)
	if interleaved == 0 {
		t.Fatal("no boot-only round ran between forkable rounds")
	}
}

// TestForkPoolNoLeak pins the fork pools' steady state: alternating between
// two prefix signatures drops and rebuilds the captured prefix every round,
// and each rebuild must recycle the previous round's thread shells rather
// than growing the pool or leaking parked goroutines. Drain then releases
// everything.
func TestForkPoolNoLeak(t *testing.T) {
	a := Scenario{
		Machine: machine.Uniprocessor(), Victim: victim.NewVi(),
		Attacker: attack.NewV1(), UseSyscall: "chown",
		FileSize: 100 << 10, Seed: 1007,
	}
	b := a
	b.FileSize = 200 << 10 // different signature: forces a prefix rebuild
	var st roundState
	if _, err := runRound(a, &st); err != nil {
		t.Fatal(err)
	}
	// One round of each signature warms the pool to its high-water mark.
	if _, err := runRound(b, &st); err != nil {
		t.Fatal(err)
	}
	high := st.k.PooledThreads()
	before := simGoroutines()
	for i := 0; i < 20; i++ {
		sc := a
		if i%2 == 1 {
			sc = b
		}
		sc.Seed += int64(i+1) * SeedStride
		if _, err := runRound(sc, &st); err != nil {
			t.Fatal(err)
		}
		if got := st.k.PooledThreads(); got > high {
			t.Fatalf("iteration %d: pool grew to %d shells (high-water %d): dropped forks are not recycling", i, got, high)
		}
	}
	if g := settleSimGoroutines(before + high); g > before+high {
		t.Fatalf("goroutines grew from %d to %d across dropped forks (pool high-water %d)", before, g, high)
	}
	st.k.Drain()
	settleSimGoroutines(before)
	if st.k.PooledThreads() != 0 {
		t.Fatalf("Drain left %d pooled shells", st.k.PooledThreads())
	}
}

// settleSimGoroutines polls simGoroutines for up to two seconds until it
// reads at most limit, and returns the last count. A finished round's
// unpooled threads exit just after handing back the CPU, so a count taken
// at once can still see them.
func settleSimGoroutines(limit int) int {
	g := simGoroutines()
	for deadline := time.Now().Add(2 * time.Second); g > limit && time.Now().Before(deadline); g = simGoroutines() {
		runtime.Gosched()
	}
	return g
}

// simGoroutines counts the live goroutines with a frame in package sim or
// core: the kernel's thread goroutines, parked or running, and the
// calling test. A goroutine the runtime starts on its own, such as the
// finalizer goroutine closing an earlier test's file, has neither and is
// not counted.
func simGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("tocttou/internal/sim.")) || bytes.Contains(g, []byte("tocttou/internal/core.")) {
			count++
		}
	}
	return count
}

// TestForkableExclusions proves the paths that must bypass forking do: a
// guard or chooser scenario rebuilds classically (no prefix is captured),
// and non-comparable program types are rejected before sigOf could panic.
func TestForkableExclusions(t *testing.T) {
	base := Scenario{
		Machine: machine.Uniprocessor(), Victim: victim.NewVi(),
		Attacker: attack.NewV1(), UseSyscall: "chown",
		FileSize: 100 << 10, Seed: 1007,
	}
	guard := base
	guard.NewGuard = func() fs.Guard { return nil }
	if forkable(guard.withDefaults()) {
		t.Fatal("guard scenario must not be forkable")
	}
	fn := base
	fn.Victim = funcProgram{inner: victim.NewVi()}
	if forkable(fn.withDefaults()) {
		t.Fatal("non-comparable program must not be forkable")
	}
	var st roundState
	if _, err := runRound(fn.withDefaults(), &st); err != nil {
		t.Fatalf("classic fallback for non-comparable program: %v", err)
	}
	if st.prefix.valid {
		t.Fatal("classic fallback must not capture a prefix")
	}
}

// funcProgram wraps a program in a struct carrying a func field, making the
// dynamic type non-comparable.
type funcProgram struct {
	inner prog.Program
	extra func() // non-comparable field
}

func (f funcProgram) Name() string { return f.inner.Name() }
func (f funcProgram) Run(c *userland.Libc, env prog.Env) error {
	return f.inner.Run(c, env)
}
