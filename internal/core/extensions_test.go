package core

import (
	"testing"
	"time"

	"tocttou/internal/attack"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/victim"
)

func TestSuccessCheckOverride(t *testing.T) {
	// The sendmail scenario's criterion: the privileged file grew.
	sc := Scenario{
		Machine: machine.SMP2(), Victim: victim.NewMailer(), Attacker: attack.Idle{},
		FileSize: 4 << 10, Seed: 600,
		SuccessCheck: func(f *fs.FS, p Paths, _ int) bool {
			info, err := f.LookupInfo(p.Passwd)
			return err == nil && info.Size > p.PasswdSize
		},
	}
	r, err := RunRound(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Success {
		t.Error("idle attacker + mailer must not grow the privileged file")
	}
}

func TestLoadThreadsSpawnAndDie(t *testing.T) {
	sc := viSc(machine.SMP2(), 1, 601, false)
	sc.LoadThreads = 3
	done := make(chan struct{})
	var r Round
	var err error
	go func() {
		r, err = RunRound(sc)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("round with load threads did not terminate")
	}
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestLoadDegradesSMPAttack(t *testing.T) {
	// Equation 1's P(attack scheduled): with a long editor phase and CPU
	// hogs contending for the second processor, the tiny 1-byte window is
	// often missed; unloaded it almost never is.
	base := viSc(machine.SMP2(), 1, 602, false)
	base.VictimStartupMax = 350 * time.Millisecond
	unloaded := campaign(t, base, 80)

	loaded := base
	loaded.Seed = 603
	loaded.LoadThreads = 3
	loadedRes := campaign(t, loaded, 80)

	if unloaded.Rate() < 0.90 {
		t.Errorf("unloaded rate = %.1f%%, want ~96%%", unloaded.Rate()*100)
	}
	if loadedRes.Rate() > unloaded.Rate()-0.25 {
		t.Errorf("load must cost the attacker dearly: %.1f%% vs %.1f%%",
			loadedRes.Rate()*100, unloaded.Rate()*100)
	}
}

func TestAttackerPriorityRestoresDedicatedCPU(t *testing.T) {
	loaded := viSc(machine.SMP2(), 1, 604, false)
	loaded.VictimStartupMax = 350 * time.Millisecond
	loaded.LoadThreads = 3
	plain := campaign(t, loaded, 80)

	prioritized := loaded
	prioritized.Seed = 605
	prioritized.AttackerNice = -10
	elite := campaign(t, prioritized, 80)

	if elite.Rate() < plain.Rate()+0.2 {
		t.Errorf("priority must restore the attack: %.1f%% vs %.1f%%",
			elite.Rate()*100, plain.Rate()*100)
	}
}

func TestSuspensionMeasurementOnUniprocessor(t *testing.T) {
	// On one CPU, success requires suspension: every successful round
	// must have VictimSuspended set, and P(susp) ≈ success rate.
	sc := viSc(machine.Uniprocessor(), 500<<10, 606, true)
	res := campaign(t, sc, 150)
	if res.Metrics.WindowUs.N() != 150 {
		t.Fatalf("windows observed = %d, want all", res.Metrics.WindowUs.N())
	}
	ps := res.PSuspended()
	rate := res.Rate()
	if diff := ps - rate; diff < -0.05 || diff > 0.12 {
		t.Errorf("P(susp) = %.2f vs success %.2f: should track closely on one CPU", ps, rate)
	}
}

func TestSendmailRoundOutcomes(t *testing.T) {
	sc := Scenario{
		Machine: machine.SMP2(), Victim: victim.NewMailer(), Attacker: attack.NewFlipFlop(),
		FileSize: 4 << 10, Seed: 607,
		SuccessCheck: func(f *fs.FS, p Paths, _ int) bool {
			info, err := f.LookupInfo(p.Passwd)
			return err == nil && info.Size > p.PasswdSize
		},
	}
	res := campaign(t, sc, 200)
	if res.Rate() < 0.02 {
		t.Errorf("SMP flip-flop rate = %.1f%%, want a real foothold", res.Rate()*100)
	}
	upSc := sc
	upSc.Machine = machine.Uniprocessor()
	upSc.Seed = 608
	upRes := campaign(t, upSc, 200)
	if upRes.Rate() > 0.02 {
		t.Errorf("uniprocessor flip-flop rate = %.1f%%, want ~0", upRes.Rate()*100)
	}
}
