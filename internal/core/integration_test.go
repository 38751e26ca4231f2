package core

import (
	"testing"
	"time"

	"tocttou/internal/attack"
	"tocttou/internal/defense"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/victim"
)

// These integration tests assert the calibration bands from DESIGN.md:
// the qualitative shape of every headline result in the paper. Round
// counts are chosen so the bands hold with margin at the fixed seeds.

func campaign(t *testing.T, sc Scenario, rounds int) CampaignResult {
	t.Helper()
	res, err := RunCampaign(sc, rounds)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	return res
}

func viSc(m machine.Profile, size int64, seed int64, traced bool) Scenario {
	return Scenario{
		Machine: m, Victim: victim.NewVi(), Attacker: attack.NewV1(),
		UseSyscall: "chown", FileSize: size, Seed: seed, Trace: traced,
	}
}

func TestViUniprocessorLowSingleDigitsAt100KB(t *testing.T) {
	res := campaign(t, viSc(machine.Uniprocessor(), 100<<10, 501, false), 300)
	if r := res.Rate(); r > 0.08 {
		t.Errorf("rate = %.1f%%, want low single digits (paper ~1.5-2%%)", r*100)
	}
}

func TestViUniprocessorRisesWithFileSize(t *testing.T) {
	small := campaign(t, viSc(machine.Uniprocessor(), 100<<10, 502, false), 300)
	large := campaign(t, viSc(machine.Uniprocessor(), 1000<<10, 503, false), 300)
	if large.Rate() < 0.08 || large.Rate() > 0.30 {
		t.Errorf("1MB rate = %.1f%%, want ~10-25%% (paper ~18%%)", large.Rate()*100)
	}
	if large.Rate() <= small.Rate() {
		t.Errorf("success must rise with file size: %.1f%% -> %.1f%%",
			small.Rate()*100, large.Rate()*100)
	}
}

func TestViSMPNearCertainFor100KB(t *testing.T) {
	res := campaign(t, viSc(machine.SMP2(), 100<<10, 504, false), 200)
	if res.Rate() < 0.99 {
		t.Errorf("rate = %.1f%%, want ~100%% (paper: 100%% for 20KB-1MB)", res.Rate()*100)
	}
}

func TestViSMPOneByteMatchesTable1(t *testing.T) {
	res := campaign(t, viSc(machine.SMP2(), 1, 505, true), 400)
	if r := res.Rate(); r < 0.90 || r > 0.995 {
		t.Errorf("rate = %.1f%%, want ≈96%% (Table 1)", r*100)
	}
	if l := res.Metrics.LUs.Mean(); l < 50 || l > 75 {
		t.Errorf("L = %.1fµs, want ≈61.6µs (Table 1)", l)
	}
	if d := res.Metrics.DUs.Mean(); d < 32 || d > 50 {
		t.Errorf("D = %.1fµs, want ≈41.1µs (Table 1)", d)
	}
	if res.Metrics.LUs.Mean() <= res.Metrics.DUs.Mean() {
		t.Error("L must exceed D for the near-certain attack")
	}
}

func TestGeditUniprocessorNearZero(t *testing.T) {
	sc := Scenario{
		Machine: machine.Uniprocessor(), Victim: victim.NewGedit(), Attacker: attack.NewV1(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: 506,
	}
	res := campaign(t, sc, 300)
	if res.Rate() > 0.01 {
		t.Errorf("rate = %.1f%%, want ~0%% (paper §4.2: no successes)", res.Rate()*100)
	}
}

func TestGeditSMPMatchesTable2(t *testing.T) {
	sc := Scenario{
		Machine: machine.SMP2(), Victim: victim.NewGedit(), Attacker: attack.NewV1(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: 507, Trace: true,
	}
	res := campaign(t, sc, 400)
	if r := res.Rate(); r < 0.65 || r > 0.95 {
		t.Errorf("rate = %.1f%%, want ≈83%% (paper §6.1)", r*100)
	}
	// The conservative L under-predicts, as the paper's Table 2 notes:
	// clamp(L/D) must be clearly below the observed rate.
	if pred := res.Metrics.LUs.Mean() / res.Metrics.DUs.Mean(); pred > res.Rate()-0.15 {
		t.Errorf("conservative L/D = %.2f should under-predict observed %.2f", pred, res.Rate())
	}
	if d := res.Metrics.DUs.Mean(); d < 30 || d > 50 {
		t.Errorf("D = %.1fµs, want ≈33-41µs band", d)
	}
}

func TestGeditMulticoreTrapKillsNaiveAttacker(t *testing.T) {
	v1 := campaign(t, Scenario{
		Machine: machine.MultiCore(), Victim: victim.NewGedit(), Attacker: attack.NewV1(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: 508, Trace: true,
	}, 300)
	v2 := campaign(t, Scenario{
		Machine: machine.MultiCore(), Victim: victim.NewGedit(), Attacker: attack.NewV2(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: 509, Trace: true,
	}, 300)
	if v1.Rate() > 0.05 {
		t.Errorf("v1 rate = %.1f%%, want ~0%% (§6.2.1)", v1.Rate()*100)
	}
	if v2.Rate() < 0.30 {
		t.Errorf("v2 rate = %.1f%%, want many successes (§6.2.2)", v2.Rate()*100)
	}
	if v2.Rate() < v1.Rate()+0.25 {
		t.Errorf("pre-faulting must transform the outcome: v1=%.1f%% v2=%.1f%%",
			v1.Rate()*100, v2.Rate()*100)
	}
	// v2's detection gap D must be much smaller than v1's (no trap).
	if v1.Metrics.DUs.N() > 0 && v2.Metrics.DUs.N() > 0 && v2.Metrics.DUs.Mean() > v1.Metrics.DUs.Mean()-5 {
		t.Errorf("v2 D=%.1fµs should be well below v1 D=%.1fµs", v2.Metrics.DUs.Mean(), v1.Metrics.DUs.Mean())
	}
}

func TestAlwaysSuspendedVictimFallsOnUniprocessor(t *testing.T) {
	sc := Scenario{
		Machine: machine.Uniprocessor(), Victim: victim.NewAlwaysSuspended(), Attacker: attack.NewV1(),
		UseSyscall: "chown", FileSize: 100 << 10, Seed: 510,
	}
	res := campaign(t, sc, 200)
	if res.Rate() < 0.97 {
		t.Errorf("rate = %.1f%%, want ~100%% (P(susp)=1, §3.2)", res.Rate()*100)
	}
}

func TestPipelinedAttackerSucceedsOnMulticore(t *testing.T) {
	sc := Scenario{
		Machine: machine.MultiCore(), Victim: victim.NewGedit(), Attacker: attack.NewPipelined(),
		UseSyscall: "chmod", FileSize: 100 << 10, Seed: 511,
	}
	res := campaign(t, sc, 200)
	if res.Rate() < 0.30 {
		t.Errorf("pipelined rate = %.1f%%, want substantial (§7)", res.Rate()*100)
	}
}

func TestDefenseDrivesAttackToZero(t *testing.T) {
	sc := viSc(machine.SMP2(), 100<<10, 512, false)
	sc.NewGuard = func() fs.Guard { return defense.New(defense.Enforce) }
	res := campaign(t, sc, 150)
	if res.Rate() > 0.01 {
		t.Errorf("guarded rate = %.1f%%, want ~0%%", res.Rate()*100)
	}
	if res.AttackErrors < 100 {
		t.Errorf("attack errors = %d, want most rounds denied", res.AttackErrors)
	}
}

func TestRoundDeterminism(t *testing.T) {
	sc := viSc(machine.SMP2(), 1, 513, true)
	a, err := RunRound(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRound(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Success != b.Success || a.LD.D != b.LD.D || a.LD.L != b.LD.L || a.End != b.End {
		t.Errorf("same seed produced different rounds: %+v vs %+v", a.LD, b.LD)
	}
	if len(a.Events) != len(b.Events) {
		t.Errorf("trace lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
}

func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	sc := viSc(machine.SMP2(), 1, 514, false)
	a := campaign(t, sc, 60)
	b := campaign(t, sc, 60)
	if a.Successes != b.Successes {
		t.Errorf("campaign successes differ: %d vs %d", a.Successes, b.Successes)
	}
}

func TestRoundReportsWindow(t *testing.T) {
	sc := viSc(machine.SMP2(), 100<<10, 515, true)
	r, err := RunRound(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !r.WindowOK {
		t.Fatal("window not observed")
	}
	if r.Window < 1500*time.Microsecond || r.Window > 2100*time.Microsecond {
		t.Errorf("window = %v, want ≈1.7ms for 100KB on SMP", r.Window)
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := RunRound(Scenario{Machine: machine.SMP2()}); err == nil {
		t.Error("missing victim/attacker must error")
	}
	if _, err := RunCampaign(viSc(machine.SMP2(), 1, 1, false), 0); err == nil {
		t.Error("zero rounds must error")
	}
}

func TestAttackerKilledAfterVictimExit(t *testing.T) {
	// A round where the attacker never detects (gedit on UP) must still
	// terminate: the harness kills the attacker when the victim exits.
	sc := Scenario{
		Machine: machine.Uniprocessor(), Victim: victim.NewGedit(), Attacker: attack.NewV1(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: 516,
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunRound(sc)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("round did not terminate")
	}
}
