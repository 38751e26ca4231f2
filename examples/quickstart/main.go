// Quickstart: run one TOCTTOU race and inspect its outcome.
//
// This example reproduces a single vi attack round on the paper's 2-way
// SMP — the scenario where the paper finds 100% attack success — and
// prints the outcome, the vulnerability window, and the L/D quantities of
// the probabilistic model.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/machine"
	"tocttou/internal/model"
	"tocttou/internal/victim"
)

func main() {
	sc := core.Scenario{
		Machine:    machine.SMP2(), // 2 × Xeon 1.7 GHz (paper §5)
		Victim:     victim.NewVi(), // vi 6.1's <open, chown> save path
		Attacker:   attack.NewV1(), // the naive stat-loop attacker (Fig. 2)
		UseSyscall: "chown",        // the call that closes vi's window
		FileSize:   100 << 10,      // a 100 KB document
		Seed:       2026,           // rounds are fully deterministic per seed
		Trace:      true,           // collect events for L/D analysis
	}

	round, err := core.RunRound(sc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("one vi save, one attacker, two CPUs:")
	fmt.Printf("  attack succeeded:      %v\n", round.Success)
	fmt.Printf("  vulnerability window:  %.1f µs (open .. chown)\n", float64(round.Window)/1e3)
	fmt.Printf("  attacker detected at:  %v\n", round.LD.StatEnter)
	fmt.Printf("  L (laxity)          =  %.1f µs\n", round.LD.Lmicros())
	fmt.Printf("  D (detection loop)  =  %.1f µs\n", round.LD.Dmicros())
	fmt.Printf("  formula (1) L/D     =  %.0f%% predicted success\n",
		model.LDRate(round.LD.Lmicros(), round.LD.Dmicros())*100)

	// Now the statistics: a short campaign over fresh seeds.
	campaign, err := core.RunCampaign(sc, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n100-round campaign: %s\n", campaign.Proportion())
	fmt.Printf("L = %.1f ± %.1f µs, D = %.1f ± %.1f µs\n",
		campaign.Metrics.LUs.Mean(), campaign.Metrics.LUs.Stdev(), campaign.Metrics.DUs.Mean(), campaign.Metrics.DUs.Stdev())
	fmt.Println("\nPaper §5: \"the success rate of 100% for all file sizes\" on the SMP.")
}
