package core

import (
	"testing"
	"time"

	"tocttou/internal/attack"
	"tocttou/internal/machine"
	"tocttou/internal/victim"
)

// TestCalibrationProbe prints the headline numbers for manual calibration.
// Run with: go test ./internal/core/ -run Probe -v -probe
func TestCalibrationProbe(t *testing.T) {
	if testing.Short() || !probeEnabled {
		t.Skip("calibration probe disabled (use -probe)")
	}
	rounds := 200

	run := func(name string, sc Scenario, n int) CampaignResult {
		res, err := RunCampaign(sc, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%-28s rate=%6.1f%%  detected=%d/%d  L=%7.1f±%5.1fµs  D=%6.1f±%4.1fµs  W=%9.1fµs",
			name, res.Rate()*100, res.Detected, res.Rounds,
			res.Metrics.LUs.Mean(), res.Metrics.LUs.Stdev(), res.Metrics.DUs.Mean(), res.Metrics.DUs.Stdev(), res.Metrics.WindowUs.Mean())
		return res
	}

	// vi on SMP.
	run("vi/smp/100KB", Scenario{
		Machine: machine.SMP2(), Victim: victim.NewVi(), Attacker: attack.NewV1(),
		UseSyscall: "chown", FileSize: 100 << 10, Seed: 42, Trace: true,
	}, rounds)
	run("vi/smp/1B", Scenario{
		Machine: machine.SMP2(), Victim: victim.NewVi(), Attacker: attack.NewV1(),
		UseSyscall: "chown", FileSize: 1, Seed: 43, Trace: true,
	}, 500)

	// vi on uniprocessor.
	for _, kb := range []int64{100, 500, 1000} {
		run("vi/up/"+itoa(kb)+"KB", Scenario{
			Machine: machine.Uniprocessor(), Victim: victim.NewVi(), Attacker: attack.NewV1(),
			UseSyscall: "chown", FileSize: kb << 10, Seed: 44 + kb,
		}, rounds)
	}

	// gedit.
	run("gedit/up/v1/2KB", Scenario{
		Machine: machine.Uniprocessor(), Victim: victim.NewGedit(), Attacker: attack.NewV1(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: 50,
	}, rounds)
	run("gedit/smp/v1/2KB", Scenario{
		Machine: machine.SMP2(), Victim: victim.NewGedit(), Attacker: attack.NewV1(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: 51, Trace: true,
	}, 500)
	run("gedit/mc/v1/2KB", Scenario{
		Machine: machine.MultiCore(), Victim: victim.NewGedit(), Attacker: attack.NewV1(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: 52, Trace: true,
	}, 500)
	run("gedit/mc/v2/2KB", Scenario{
		Machine: machine.MultiCore(), Victim: victim.NewGedit(), Attacker: attack.NewV2(),
		UseSyscall: "chmod", FileSize: 2 << 10, Seed: 53, Trace: true,
	}, 500)

	// rpm-like on uniprocessor: always suspended -> near 100%.
	run("rpm/up/v1/100KB", Scenario{
		Machine: machine.Uniprocessor(), Victim: victim.NewAlwaysSuspended(), Attacker: attack.NewV1(),
		UseSyscall: "chown", FileSize: 100 << 10, Seed: 54,
	}, rounds)

	_ = time.Microsecond
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
