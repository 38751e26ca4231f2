// Command traceview runs a single traced attack round and renders its
// event timeline (in the style of the paper's Figures 8 and 10), with an
// optional full-event CSV dump for external analysis. It can also render a
// previously exported JSONL trace (tocttou -trace-out) instead of running
// a fresh round.
//
// Usage:
//
//	traceview -machine smp -victim gedit -attacker v1 -size 2 -seed 7
//	traceview -machine mc -victim gedit -attacker v2 -want success
//	traceview -machine smp -victim vi -size 100 -csv events.csv
//	traceview -input trace.jsonl [-width 120] [-csv events.csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/sim"
	"tocttou/internal/trace"
	"tocttou/internal/victim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("traceview", flag.ContinueOnError)
	machineName := fl.String("machine", "smp", "machine profile: up, smp, multicore")
	victimName := fl.String("victim", "gedit", "victim: vi, gedit, rpm")
	attackerName := fl.String("attacker", "v1", "attacker: v1, v2, pipelined, idle")
	sizeKB := fl.Int64("size", 2, "file size in KB")
	seed := fl.Int64("seed", 7, "round seed")
	want := fl.String("want", "any", "search seeds for an outcome: any, success, failure")
	csvPath := fl.String("csv", "", "write the full event trace as CSV to this file")
	width := fl.Int("width", 100, "timeline width in columns")
	input := fl.String("input", "", "render a previously exported JSONL trace (tocttou -trace-out) instead of running a round")
	if err := fl.Parse(args); err != nil {
		return err
	}

	// Every flag is validated here, before any round runs or any file is
	// opened, so a bad invocation fails fast with a non-zero exit instead
	// of surfacing mid-run (or, for -want, after 512 wasted rounds).
	if *width <= 0 {
		return fmt.Errorf("-width must be positive (got %d)", *width)
	}
	if *sizeKB <= 0 {
		return fmt.Errorf("-size must be a positive KB count (got %d)", *sizeKB)
	}
	switch *want {
	case "any", "success", "failure":
	default:
		return fmt.Errorf("unknown -want %q (have any, success, failure)", *want)
	}
	m, ok := machine.ByName(*machineName)
	if !ok {
		return fmt.Errorf("unknown machine %q", *machineName)
	}
	var vict prog.Program
	use := "chown"
	switch *victimName {
	case "vi":
		vict = victim.NewVi()
	case "gedit":
		vict = victim.NewGedit()
		use = "chmod"
	case "rpm":
		vict = victim.NewAlwaysSuspended()
	default:
		return fmt.Errorf("unknown victim %q", *victimName)
	}
	var att prog.Program
	switch *attackerName {
	case "v1":
		att = attack.NewV1()
	case "v2":
		att = attack.NewV2()
	case "pipelined":
		att = attack.NewPipelined()
	case "idle":
		att = attack.Idle{}
	default:
		return fmt.Errorf("unknown attacker %q", *attackerName)
	}

	if *input != "" {
		var conflicts []string
		fl.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "machine", "victim", "attacker", "size", "seed", "want":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("%s only apply when running a live round; drop them or drop -input",
				strings.Join(conflicts, ", "))
		}
		return renderInput(*input, *width, *csvPath)
	}

	sc := core.Scenario{
		Machine: m, Victim: vict, Attacker: att,
		UseSyscall: use, FileSize: *sizeKB << 10, Seed: *seed, Trace: true,
	}

	pred := func(r core.Round) bool {
		switch *want {
		case "success":
			return r.Success
		case "failure":
			return !r.Success && r.LD.Detected
		}
		return true
	}
	round, _, _, err := core.FindRound(sc, 512, 7919, pred)
	if err != nil {
		return err
	}

	fmt.Printf("round: machine=%s victim=%s attacker=%s size=%dKB seed=%d\n",
		m.Name, vict.Name(), att.Name(), *sizeKB, sc.Seed)
	fmt.Printf("outcome: success=%v window=%v detected=%v L=%.1fµs D=%.1fµs\n\n",
		round.Success, round.WindowOK, round.LD.Detected,
		round.LD.Lmicros(), round.LD.Dmicros())

	log := trace.New(round.Events)
	lanes := trace.BuildTimeline(log, map[int32]string{
		round.VictimPID:   vict.Name(),
		round.AttackerPID: "attacker",
	})
	from, to := round.LD.T1.Add(-40*1000), round.LD.T1.Add(120*1000)
	if !round.LD.WindowFound {
		from, to = 0, round.End
	}
	fmt.Print(trace.RenderASCII(lanes, from, to, *width))

	fmt.Println("\nper-thread activity over the whole round:")
	fmt.Print(trace.RenderSummaries(trace.Summarize(log), map[int32]string{
		round.VictimPID:   vict.Name(),
		round.AttackerPID: "attacker",
	}))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, round.Events); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d events to %s\n", len(round.Events), *csvPath)
	}
	return nil
}

// renderInput renders a JSONL export instead of running a round. An
// unreadable file or malformed line is a hard error, so scripted pipelines
// see a non-zero exit rather than a partial timeline — but an export that
// parses and merely has nothing to draw (zero events, or only point-like
// events such as choices and faults with no time span) is valid input and
// renders a clean report with exit 0. Process display names come from the
// trace's spawn events; PIDs whose spawns were filtered out of the export
// fall back to "pid<N>".
func renderInput(path string, width int, csvPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	labels := make(map[int32]string)
	var end sim.Time
	for _, e := range events {
		if e.T > end {
			end = e.T
		}
		if e.Kind == sim.EvSpawn && e.Label != "" {
			if _, ok := labels[e.PID]; !ok {
				labels[e.PID] = e.Label
			}
		}
	}
	for _, e := range events {
		if _, ok := labels[e.PID]; !ok && e.PID > 0 {
			labels[e.PID] = fmt.Sprintf("pid%d", e.PID)
		}
	}

	fmt.Printf("input: %s (%d events, %.1fms span)\n\n", path, len(events), float64(end)/1e6)
	if len(events) == 0 {
		fmt.Println("(no events: nothing to render)")
	} else {
		log := trace.New(events)
		timeline := trace.RenderASCII(trace.BuildTimeline(log, labels), 0, end, width)
		if timeline == "" {
			// Point-like events (choices, faults) at a single instant give
			// the timeline no span; the summaries below still apply.
			fmt.Println("(no time span: timeline omitted)")
		} else {
			fmt.Print(timeline)
		}
		fmt.Println("\nper-thread activity over the whole trace:")
		fmt.Print(trace.RenderSummaries(trace.Summarize(log), labels))
	}

	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := trace.WriteCSV(out, events); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d events to %s\n", len(events), csvPath)
	}
	return nil
}
