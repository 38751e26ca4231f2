package experiments

import (
	"fmt"
	"io"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/machine"
	"tocttou/internal/report"
	"tocttou/internal/sim"
	"tocttou/internal/trace"
)

// Fig11Row captures the attack-step timing for one file size and one
// attacker structure, relative to the detecting stat's start (µs).
type Fig11Row struct {
	SizeKB   int
	Parallel bool
	// StatStart/End, UnlinkStart/End, SymlinkStart/End are µs offsets
	// from the detecting stat's entry.
	StatStart, StatEnd       float64
	UnlinkStart, UnlinkEnd   float64
	SymlinkStart, SymlinkEnd float64
	// AttackDone is when the name redirection is complete (symlink end).
	AttackDone float64
}

// Fig11Result reproduces the paper's Figure 11: the effect of
// parallelizing the attack program.
type Fig11Result struct {
	Rows []Fig11Row
}

// Name implements Result.
func (r *Fig11Result) Name() string { return "fig11" }

// Render implements Result.
func (r *Fig11Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Figure 11 — the effect of parallelizing the attack program\n")
	fmt.Fprintf(w, "Paper: in the parallel attack the symlink finishes well before unlink's\n")
	fmt.Fprintf(w, "truncation ends; sequentially it must wait for the whole unlink.\n\n")
	bc := &report.BarChart{Title: "attack step timing by file size", Unit: "µs"}
	for _, row := range r.Rows {
		label := fmt.Sprintf("%dKB %s", row.SizeKB, map[bool]string{true: "parallel", false: "sequential"}[row.Parallel])
		bc.Bars = append(bc.Bars, report.Bar{
			Label: label,
			Segments: []report.Segment{
				{Name: "stat", Start: row.StatStart, End: row.StatEnd},
				{Name: "unlink", Start: row.UnlinkStart, End: row.UnlinkEnd},
				{Name: "symlink", Start: row.SymlinkStart, End: row.SymlinkEnd},
			},
		})
	}
	if err := bc.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	tbl := &report.Table{Headers: []string{"file size", "attacker", "unlink ends (µs)", "attack done (µs)", "speedup"}}
	bySize := map[int][2]float64{} // size -> [sequentialDone, parallelDone]
	for _, row := range r.Rows {
		v := bySize[row.SizeKB]
		if row.Parallel {
			v[1] = row.AttackDone
		} else {
			v[0] = row.AttackDone
		}
		bySize[row.SizeKB] = v
	}
	for _, row := range r.Rows {
		speedup := ""
		if row.Parallel {
			v := bySize[row.SizeKB]
			if v[1] > 0 {
				speedup = fmt.Sprintf("%.1fx", v[0]/v[1])
			}
		}
		tbl.AddRow(
			fmt.Sprintf("%dKB", row.SizeKB),
			map[bool]string{true: "parallel", false: "sequential"}[row.Parallel],
			fmt.Sprintf("%.1f", row.UnlinkEnd),
			fmt.Sprintf("%.1f", row.AttackDone),
			speedup,
		)
	}
	return tbl.Render(w)
}

// Fig11 measures the pipelined and sequential attackers' step timing on
// the multi-core for the paper's three file sizes.
func Fig11(opt Options) (Result, error) {
	sizes := opt.Sizes
	if sizes == nil {
		sizes = []int{20, 100, 500}
	}
	seed := opt.seed(11003)
	out := &Fig11Result{}
	for i, kb := range sizes {
		for _, parallel := range []bool{false, true} {
			row, err := fig11Row(kb, parallel, seed+int64(i)*7717)
			if err != nil {
				return nil, fmt.Errorf("fig11 %dKB parallel=%v: %w", kb, parallel, err)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

func fig11Row(sizeKB int, parallel bool, seed int64) (Fig11Row, error) {
	// §7 is explicitly about multi-cores: with only two CPUs the second
	// attacker thread has no processor to overlap on.
	m := machine.MultiCore()
	sc := core.Scenario{
		Machine:    m,
		Victim:     GeditScenario(m, attack.NewV2(), 0, false).Victim,
		UseSyscall: "chmod",
		FileSize:   int64(sizeKB) << 10,
		Seed:       seed,
		Trace:      true,
	}
	if parallel {
		sc.Attacker = attack.NewPipelined()
	} else {
		sc.Attacker = attack.NewV2()
	}
	// Find a round where the attack steps all completed on the target.
	r, _, _, err := findRound(sc, func(r core.Round) bool {
		if !r.LD.Detected {
			return false
		}
		log := trace.New(r.Events)
		_, _, ok := log.SyscallSpan(r.AttackerPID, "symlink", core.DefaultPaths().Target, r.LD.UnlinkEnter)
		return ok
	})
	if err != nil {
		return Fig11Row{}, err
	}
	log := trace.New(r.Events)
	target := core.DefaultPaths().Target
	statEnter := r.LD.StatEnter
	statExit, _ := log.FirstSyscallExit(r.AttackerPID, "stat", target, statEnter)
	ulEnter, ulExit, _ := log.SyscallSpan(r.AttackerPID, "unlink", target, statEnter)
	// The successful symlink on the target (retries all share the path;
	// take the first span whose exit reports success).
	slEnter, slExit := findOKSyscall(log, r.AttackerPID, "symlink", target, statEnter)

	rel := func(t sim.Time) float64 { return t.Sub(statEnter).Seconds() * 1e6 }
	return Fig11Row{
		SizeKB:    sizeKB,
		Parallel:  parallel,
		StatStart: 0, StatEnd: rel(statExit),
		UnlinkStart: rel(ulEnter), UnlinkEnd: rel(ulExit),
		SymlinkStart: rel(slEnter), SymlinkEnd: rel(slExit),
		AttackDone: rel(slExit),
	}, nil
}

// findOKSyscall locates the first successful (errno 0) occurrence of the
// syscall on path at or after from, returning its enter and exit times.
func findOKSyscall(log *trace.Log, pid int32, name, path string, from sim.Time) (sim.Time, sim.Time) {
	var enter sim.Time
	var haveEnter bool
	for _, e := range log.Events {
		if e.T < from || e.PID != pid || e.Label != name || e.Path != path {
			continue
		}
		switch e.Kind {
		case sim.EvSyscallEnter:
			enter, haveEnter = e.T, true
		case sim.EvSyscallExit:
			if haveEnter && e.Arg == 0 {
				return enter, e.T
			}
		}
	}
	return 0, 0
}
