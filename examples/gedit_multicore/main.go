// gedit on a multi-core: why the attacker's implementation matters.
//
// The gedit window on the paper's multi-core is only ~3 µs of computation
// between rename and chmod. The naive attacker (program 1, Fig. 4) takes
// a page-fault trap on its first unlink — fatal at this scale. Program 2
// (Fig. 9) keeps the stub page and branch warm by unlinking a dummy file
// every iteration, and starts winning. This example measures both and
// renders a failed-v1 and successful-v2 timeline like Figures 8 and 10.
//
// Run: go run ./examples/gedit_multicore
package main

import (
	"fmt"
	"log"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/trace"
	"tocttou/internal/victim"
)

func main() {
	m := machine.MultiCore()
	scenario := func(att prog.Program, seed int64) core.Scenario {
		return core.Scenario{
			Machine: m, Victim: victim.NewGedit(), Attacker: att,
			UseSyscall: "chmod", FileSize: 2 << 10, Seed: seed, Trace: true,
		}
	}

	const rounds = 300
	v1, err := core.RunCampaign(scenario(attack.NewV1(), 61), rounds)
	if err != nil {
		log.Fatal(err)
	}
	v2, err := core.RunCampaign(scenario(attack.NewV2(), 62), rounds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gedit attack on %s (%d rounds each):\n", m.Name, rounds)
	fmt.Printf("  program 1 (naive, traps in-window): %s\n", v1.Proportion())
	fmt.Printf("  program 2 (pre-faulted, Fig. 9):    %s\n", v2.Proportion())
	fmt.Printf("  detection gap D: v1 = %.1fµs vs v2 = %.1fµs (the trap + cold branch)\n\n",
		v1.Metrics.DUs.Mean(), v2.Metrics.DUs.Mean())

	// A failed v1 round, like the paper's Figure 8.
	show("FAILED program-1 round (paper Fig. 8)", scenario(attack.NewV1(), 63),
		func(r core.Round) bool { return !r.Success && r.LD.Detected })

	// A successful v2 round, like the paper's Figure 10.
	show("SUCCESSFUL program-2 round (paper Fig. 10)", scenario(attack.NewV2(), 64),
		func(r core.Round) bool { return r.Success })
}

func show(title string, sc core.Scenario, want func(core.Round) bool) {
	for i := 0; i < 512; i++ {
		r, err := core.RunRound(sc)
		if err != nil {
			log.Fatal(err)
		}
		if !want(r) {
			sc.Seed += 104729
			continue
		}
		fmt.Printf("--- %s (seed %d) ---\n", title, sc.Seed)
		log2 := trace.New(r.Events)
		lanes := trace.BuildTimeline(log2, map[int32]string{
			r.VictimPID: "gedit", r.AttackerPID: "attacker",
		})
		fmt.Print(trace.RenderASCII(lanes, r.LD.T1.Add(-25*1000), r.LD.T1.Add(60*1000), 100))
		fmt.Println()
		return
	}
	log.Fatalf("no round matching %q found", title)
}
