package fault

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"tocttou/internal/fs"
	"tocttou/internal/sim"
)

// inTask runs fn as a single root thread on a throwaway kernel, for the
// injector methods that need a *sim.Task (tracing).
func inTask(t *testing.T, fn func(*sim.Task)) {
	t.Helper()
	k := sim.New(sim.Config{CPUs: 1, Quantum: time.Millisecond, Seed: 1})
	p := k.NewProcess("test", 0, 0)
	k.Spawn(p, "main", fn)
	if err := k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		bad  string // offending rate name, "" = valid
	}{
		{"zero", Plan{}, ""},
		{"all max", Plan{FSRate: 1, SemIntrRate: 1, KillVictimRate: 1, KillAttackerRate: 1}, ""},
		{"fs negative", Plan{FSRate: -0.1}, "FSRate"},
		{"fs above one", Plan{FSRate: 1.5}, "FSRate"},
		{"sem above one", Plan{SemIntrRate: 2}, "SemIntrRate"},
		{"kill victim negative", Plan{KillVictimRate: -1}, "KillVictimRate"},
		{"kill attacker above one", Plan{KillAttackerRate: 1.01}, "KillAttackerRate"},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if c.bad == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", c.name, err)
			}
			continue
		}
		var re *RateError
		if !errors.As(err, &re) {
			t.Errorf("%s: Validate() = %v, want *RateError", c.name, err)
			continue
		}
		if re.Name != c.bad {
			t.Errorf("%s: RateError.Name = %q, want %q", c.name, re.Name, c.bad)
		}
	}
}

func TestPlanEnabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Error("zero plan reports Enabled")
	}
	// A seed alone injects nothing: seeded-but-rateless plans must stay on
	// the fault-free fast path.
	if (Plan{Seed: 99, SemIntrDelay: time.Microsecond}).Enabled() {
		t.Error("rateless plan reports Enabled")
	}
	for _, p := range []Plan{
		{FSRate: 0.01},
		{SemIntrRate: 0.01},
		{KillVictimRate: 0.01},
		{KillAttackerRate: 0.01},
	} {
		if !p.Enabled() {
			t.Errorf("plan %+v reports disabled", p)
		}
	}
}

func TestMixSeedSpread(t *testing.T) {
	// Round seeds differ by a fixed stride in real campaigns; the mixed
	// stream seeds must still be pairwise distinct.
	const stride = 1_000_003
	seen := make(map[int64]bool)
	for i := int64(0); i < 1000; i++ {
		s := mixSeed(42, 7001+i*stride)
		if seen[s] {
			t.Fatalf("mixSeed collision at round %d", i)
		}
		seen[s] = true
	}
	if mixSeed(1, 100) == mixSeed(2, 100) {
		t.Error("plan seed does not perturb the stream")
	}
}

func TestDrawKillDeterministic(t *testing.T) {
	plan := Plan{KillVictimRate: 0.5, KillWindow: time.Millisecond}
	a := plan.NewInjector(31)
	b := plan.NewInjector(31)
	for i := 0; i < 200; i++ {
		ad, ak := a.DrawKill(0.5)
		bd, bk := b.DrawKill(0.5)
		if ad != bd || ak != bk {
			t.Fatalf("draw %d diverged: (%v,%v) vs (%v,%v)", i, ad, ak, bd, bk)
		}
		if ak && ad >= time.Millisecond {
			t.Fatalf("draw %d: instant %v outside the kill window", i, ad)
		}
	}
}

func TestZeroRateDrawsConsumeNothing(t *testing.T) {
	// A zero-rate DrawKill and a rateless SemBlocked must not advance the
	// stream: the next real draw has to match an injector that skipped
	// them entirely.
	plan := Plan{KillAttackerRate: 0.5}
	a := plan.NewInjector(77)
	b := plan.NewInjector(77)
	for i := 0; i < 50; i++ {
		a.DrawKill(0)
	}
	if _, ok := a.SemBlocked(nil, nil); ok {
		t.Fatal("rateless SemBlocked armed an interruption")
	}
	for i := 0; i < 100; i++ {
		ad, ak := a.DrawKill(0.5)
		bd, bk := b.DrawKill(0.5)
		if ad != bd || ak != bk {
			t.Fatalf("draw %d diverged after zero-rate draws: (%v,%v) vs (%v,%v)", i, ad, ak, bd, bk)
		}
	}
}

func TestInjectOpErrnosFitOperation(t *testing.T) {
	inTask(t, func(task *sim.Task) {
		cases := []struct {
			op   fs.Op
			want []fs.Errno
		}{
			{fs.OpWrite, []fs.Errno{fs.ENOSPC, fs.EIO}},
			{fs.OpCreate, []fs.Errno{fs.ENOSPC, fs.EIO}},
			{fs.OpOpen, []fs.Errno{fs.EMFILE, fs.EIO}},
			{fs.OpStat, []fs.Errno{fs.EIO}},
			{fs.OpUnlink, []fs.Errno{fs.EIO}},
		}
		for _, c := range cases {
			in := Plan{FSRate: 1}.NewInjector(5)
			seen := make(map[fs.Errno]int)
			for i := 0; i < 64; i++ {
				err := in.InjectOp(task, c.op, "/victim")
				if err == nil {
					t.Fatalf("%v: FSRate=1 injected nothing", c.op)
				}
				var pe *fs.PathError
				if !errors.As(err, &pe) {
					t.Fatalf("%v: injected %T, want *fs.PathError", c.op, err)
				}
				ok := false
				for _, e := range c.want {
					if errors.Is(err, e) {
						seen[e]++
						ok = true
					}
				}
				if !ok {
					t.Fatalf("%v: injected errno %v, want one of %v", c.op, pe.Err, c.want)
				}
			}
			for _, e := range c.want {
				if seen[e] == 0 {
					t.Errorf("%v: errno %v never drawn in 64 injections", c.op, e)
				}
			}
			if got := in.Counters.FSErrors; got != 64 {
				t.Errorf("%v: FSErrors = %d, want 64", c.op, got)
			}
		}
	})
}

func TestInjectOpRespectsOpFilter(t *testing.T) {
	inTask(t, func(task *sim.Task) {
		in := Plan{FSRate: 1, FSOps: []fs.Op{fs.OpOpen}}.NewInjector(9)
		if err := in.InjectOp(task, fs.OpWrite, "/x"); err != nil {
			t.Fatalf("filtered-out op injected: %v", err)
		}
		if err := in.InjectOp(task, fs.OpOpen, "/x"); err == nil {
			t.Fatal("listed op not injected at FSRate=1")
		}
		if in.Counters.FSErrors != 1 {
			t.Errorf("FSErrors = %d, want 1", in.Counters.FSErrors)
		}
	})
}

func TestSemBlockedDelayDefaults(t *testing.T) {
	in := Plan{SemIntrRate: 1}.NewInjector(3)
	d, ok := in.SemBlocked(nil, nil)
	if !ok || d != DefaultSemIntrDelay {
		t.Errorf("SemBlocked = (%v, %v), want (%v, true)", d, ok, DefaultSemIntrDelay)
	}
	in = Plan{SemIntrRate: 1, SemIntrDelay: 3 * time.Microsecond}.NewInjector(3)
	if d, _ := in.SemBlocked(nil, nil); d != 3*time.Microsecond {
		t.Errorf("SemBlocked delay = %v, want 3µs", d)
	}
	in.SemInterrupted(nil)
	if in.Counters.SemInterrupts != 1 {
		t.Errorf("SemInterrupts = %d, want 1", in.Counters.SemInterrupts)
	}
}

func TestCountersAddAndTotal(t *testing.T) {
	var c Counters
	c.Add(Counters{FSErrors: 1, SemInterrupts: 2, Kills: 3, Restarts: 4})
	c.Add(Counters{FSErrors: 10})
	want := Counters{FSErrors: 11, SemInterrupts: 2, Kills: 3, Restarts: 4}
	if c != want {
		t.Errorf("Counters = %+v, want %+v", c, want)
	}
	if c.Total() != 20 {
		t.Errorf("Total = %d, want 20", c.Total())
	}
}

func TestRestartDelayOrDefault(t *testing.T) {
	if d := (Plan{}).NewInjector(1).RestartDelayOrDefault(); d != DefaultKillWindow/10 {
		t.Errorf("default restart delay = %v, want %v", d, DefaultKillWindow/10)
	}
	in := Plan{RestartDelay: 5 * time.Millisecond}.NewInjector(1)
	if d := in.RestartDelayOrDefault(); d != 5*time.Millisecond {
		t.Errorf("restart delay = %v, want 5ms", d)
	}
}

// TestResetMatchesFreshInjector pins that re-arming an injector in place
// is indistinguishable from building a new one: after a round of draws
// and tallies under one plan, Reset onto another plan yields the stdlib
// stream of the new (plan, round) seed, the new operation mask and zeroed
// counters.
func TestResetMatchesFreshInjector(t *testing.T) {
	in := Plan{Seed: 5, FSRate: 1, KillVictimRate: 1}.NewInjector(11)
	for i := 0; i < 50; i++ {
		in.DrawKill(1)
	}
	in.Counters.Kills = 3
	p := Plan{Seed: 1303, FSRate: 0.5, FSOps: []fs.Op{fs.OpRename}}
	in.Reset(p, 90107)
	fresh := p.NewInjector(90107)
	if in.opMask != fresh.opMask || in.Counters != (Counters{}) {
		t.Fatalf("reset injector: mask %#x counters %+v, want mask %#x and zero counters", in.opMask, in.Counters, fresh.opMask)
	}
	ref := rand.New(rand.NewSource(mixSeed(p.Seed, 90107)))
	for i := 0; i < 1000; i++ {
		a, b, want := in.rng.Int63(), fresh.rng.Int63(), ref.Int63()
		if a != want || b != want {
			t.Fatalf("draw %d: reset %d, fresh %d, stdlib %d", i, a, b, want)
		}
	}
}
