package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tocttou/internal/attack"
	"tocttou/internal/fault"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/sim"
	"tocttou/internal/victim"
)

// The coalesced ≡ stepped equivalence suite: stretch coalescing and the
// interrupt fold are performance paths only, so forcing
// DisableCoalesce must change nothing observable — round outcomes, the
// JSONL-visible event stream, kernel counters, fault tallies, and the
// float-order-sensitive metric folds of whole campaigns are all compared
// bit for bit, across machines, programs, sizes, and fault plans.

// steppedTwin is sc with every coalescing fast path forced off.
func steppedTwin(sc Scenario) Scenario {
	sc.DisableCoalesce = true
	return sc
}

// assertRoundEquiv runs one round coalesced and stepped and compares
// every field of the two Rounds, event by event.
func assertRoundEquiv(t *testing.T, label string, sc Scenario) {
	t.Helper()
	a, aerr := RunRound(sc)
	b, berr := RunRound(steppedTwin(sc))
	if (aerr == nil) != (berr == nil) ||
		(aerr != nil && aerr.Error() != berr.Error()) {
		t.Fatalf("%s: errors diverge: coalesced %v, stepped %v", label, aerr, berr)
	}
	if aerr != nil {
		return
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("%s: event count diverges: coalesced %d, stepped %d", label, len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("%s: trace diverges at event %d:\ncoalesced: %+v\nstepped:   %+v", label, i, a.Events[i], b.Events[i])
		}
	}
	if av, bv := fmt.Sprint(a.VictimErr), fmt.Sprint(b.VictimErr); av != bv {
		t.Errorf("%s: victim error diverges: coalesced %s, stepped %s", label, av, bv)
	}
	if av, bv := fmt.Sprint(a.AttackerErr), fmt.Sprint(b.AttackerErr); av != bv {
		t.Errorf("%s: attacker error diverges: coalesced %s, stepped %s", label, av, bv)
	}
	a.Events, b.Events = nil, nil
	a.VictimErr, a.AttackerErr = nil, nil
	b.VictimErr, b.AttackerErr = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: round diverges:\ncoalesced: %+v\nstepped:   %+v", label, a, b)
	}
}

// smp2Quiet is SMP2 with no latency jitter and no background noise: a
// machine on which a chunked write consumes no RNG draw at all, so the
// coalesced path retires it through nothing but clock arithmetic.
func smp2Quiet() machine.Profile {
	m := machine.SMP2()
	m.Jitter = 0
	m.Noise = sim.NoiseConfig{}
	return m
}

func TestCoalescedRoundsBitIdenticalToStepped(t *testing.T) {
	machines := map[string]machine.Profile{
		"uni":        machine.Uniprocessor(),
		"smp2":       machine.SMP2(),
		"smp2-quiet": smp2Quiet(),
		"mc":         machine.MultiCore(),
	}
	for mname, m := range machines {
		for _, kb := range []int64{1, 100 << 10, 1000 << 10} {
			for _, traced := range []bool{false, true} {
				for s := int64(0); s < 3; s++ {
					sc := viSc(m, kb, 15101+s*7919, traced)
					assertRoundEquiv(t, fmt.Sprintf("vi/%s/%dB/traced=%v/seed=%d", mname, kb, traced, sc.Seed), sc)
				}
			}
		}
	}
	// The gedit save path writes through the same chunked-write stretch
	// with a different syscall mix, against both attacker variants.
	for _, atk := range []struct {
		name string
		p    prog.Program
	}{{"v1", attack.NewV1()}, {"v2", attack.NewV2()}} {
		sc := viSc(machine.SMP2(), 400<<10, 15201, false)
		sc.Victim = victim.NewGedit()
		sc.Attacker = atk.p
		sc.UseSyscall = "chmod"
		assertRoundEquiv(t, "gedit/"+atk.name, sc)
	}
}

func TestCoalescedFaultCampaignsBitIdenticalToStepped(t *testing.T) {
	// Every fault channel, at campaign scale: errno injection bends the
	// fs paths mid-stretch, EINTR delivery interrupts semaphore waits the
	// quiet-stretch proof depends on, and kills unwind threads that may
	// be mid-stretch. Campaign equality covers the metric folds
	// (Welford summaries, histograms) bit for bit.
	plans := map[string]fault.Plan{
		"errno": {Seed: 1303, FSRate: 0.05},
		"eintr": {Seed: 1307, SemIntrRate: 0.5, SemIntrDelay: time.Microsecond},
		"kill":  {Seed: 1309, KillVictimRate: 0.1, KillAttackerRate: 0.1, KillWindow: 4 * time.Millisecond, Restart: true},
	}
	const rounds = 150
	for pname, plan := range plans {
		for _, traced := range []bool{false, true} {
			sc := viSc(machine.SMP2(), 100<<10, 16101, traced)
			sc.Faults = plan
			sc.Watchdog = 5 * time.Second
			for _, procs := range []int{1, runtime.NumCPU()} {
				prev := runtime.GOMAXPROCS(procs)
				co, err1 := RunCampaign(sc, rounds)
				st, err2 := RunCampaign(steppedTwin(sc), rounds)
				runtime.GOMAXPROCS(prev)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s traced=%v: campaign errors: coalesced %v, stepped %v", pname, traced, err1, err2)
				}
				if co != st {
					t.Errorf("%s traced=%v GOMAXPROCS=%d: campaign diverges:\ncoalesced: %+v\nstepped:   %+v",
						pname, traced, procs, co, st)
				}
			}
			// And one fully-compared round per plan, trace included.
			assertRoundEquiv(t, "fault/"+pname, sc)
		}
	}
}

func TestCoalescedForkedRoundAddsZeroAllocs(t *testing.T) {
	// The coalescing fast path is pure arithmetic on stack-local state:
	// a steady-state forked round must allocate nothing beyond what the
	// stepped path already does (the fs model's error values, round-
	// dependent but identical either way), and that residual stays tiny.
	measure := func(disable bool) float64 {
		sc := benchScenario()
		sc.FileSize = 1000 << 10
		sc.DisableCoalesce = disable
		var st roundState
		seed := int64(0)
		sc.Seed = 1007
		if _, err := runRound(sc, &st); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(300, func() {
			seed++
			sc.Seed = 1007 + seed*SeedStride
			if _, err := runRound(sc, &st); err != nil {
				t.Fatal(err)
			}
		})
	}
	coalesced, stepped := measure(false), measure(true)
	if coalesced > stepped {
		t.Errorf("coalescing added allocations: %.2f/round coalesced vs %.2f/round stepped", coalesced, stepped)
	}
	if coalesced > 2 {
		t.Errorf("coalesced forked round allocates %.2f/round, want <= 2", coalesced)
	}
}

func TestHorizonExactlyOnStretchLastEvent(t *testing.T) {
	// The sharpest truncation boundary: a horizon landing one nanosecond
	// before, exactly on, and one nanosecond after the round's final
	// event. Events at exactly MaxTime still process; the first event
	// past it trips the budget — the coalesced path must agree at all
	// three offsets, including when the cut falls inside a write stretch.
	base := viSc(machine.Uniprocessor(), 1000<<10, 17101, false)
	ref, err := RunRound(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []time.Duration{-time.Nanosecond, 0, time.Nanosecond} {
		sc := base
		sc.Horizon = time.Duration(ref.End) + delta
		assertRoundEquiv(t, fmt.Sprintf("horizon=end%+d", delta), sc)
	}
}

func TestHorizonMidWriteStretchBitIdentical(t *testing.T) {
	// Horizons landing inside the big-file chunked-write stretch — the
	// deepest coalesced region — at several depths.
	base := viSc(machine.Uniprocessor(), 1000<<10, 17201, false)
	ref, err := RunRound(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int64{3, 5, 7, 9} {
		sc := base
		sc.Horizon = time.Duration(ref.End) * time.Duration(frac) / 10
		assertRoundEquiv(t, fmt.Sprintf("horizon=%d0%%", frac), sc)
	}
}

func TestWatchdogExpiryMidStretchBitIdentical(t *testing.T) {
	// A watchdog that expires mid-round is a round *error*, not a
	// truncation; both paths must fail identically, at the same virtual
	// instant, whether the expiry lands inside a coalesced stretch or
	// between stretches.
	base := viSc(machine.Uniprocessor(), 1000<<10, 17301, false)
	ref, err := RunRound(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int64{4, 6, 8} {
		sc := base
		sc.Watchdog = time.Duration(ref.End) * time.Duration(frac) / 10
		a, aerr := RunRound(sc)
		b, berr := RunRound(steppedTwin(sc))
		if aerr == nil || berr == nil {
			t.Fatalf("watchdog=%d0%%: expected both paths to abort, got coalesced (%v, err %v), stepped (%v, err %v)",
				frac, a.Success, aerr, b.Success, berr)
		}
		if aerr.Error() != berr.Error() {
			t.Errorf("watchdog=%d0%%: abort errors diverge: coalesced %v, stepped %v", frac, aerr, berr)
		}
	}
}

func TestEINTRDeliveryAroundTickBoundary(t *testing.T) {
	// EINTR deliveries scheduled one tick period (±1µs) after the wait
	// begins land just past a coalesced advance, at the instants where
	// the stretch has just retired a segment bracketing a tick fire. The
	// delivered interrupt must unwind the wait identically either way.
	const tick = time.Millisecond // machine profiles run HZ=1000
	for _, delay := range []time.Duration{tick - time.Microsecond, tick, tick + time.Microsecond} {
		sc := viSc(machine.SMP2(), 200<<10, 17401, true)
		sc.Faults = fault.Plan{Seed: 1311, SemIntrRate: 1.0, SemIntrDelay: delay}
		sc.Watchdog = 5 * time.Second
		assertRoundEquiv(t, fmt.Sprintf("eintr-delay=%v", delay), sc)
	}
}
