package experiments

import (
	"errors"
	"fmt"
	"io"

	"time"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/report"
	"tocttou/internal/victim"
)

// SendmailRow is one machine's result for the blind append attack.
type SendmailRow struct {
	Machine string
	Result  core.CampaignResult
	// Refused counts deliveries aborted by the symlink check — rounds
	// where the defense-by-checking actually worked.
	Refused int
}

// SendmailResult reproduces the paper's §1 motivating example — the
// sendmail-style <lstat, open> pair attacked blindly by a flip-flopping
// mailbox owner — across machines. The attacker cannot observe the check,
// so this scenario isolates the pure scheduling effect: the uniprocessor
// protects the victim, the multiprocessor does not.
type SendmailResult struct {
	Rows   []SendmailRow
	Rounds int
}

// Name implements Result.
func (r *SendmailResult) Name() string { return "sendmail" }

// Render implements Result.
func (r *SendmailResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "§1 example — sendmail-style <lstat, open> mailbox attack (%d rounds)\n", r.Rounds)
	fmt.Fprintf(w, "The attacker blindly flip-flops the mailbox between a file and a symlink\n")
	fmt.Fprintf(w, "to /etc/passwd; success = the delivery appended to /etc/passwd.\n\n")
	tbl := &report.Table{Headers: []string{"machine", "passwd captured", "delivery refused by check", "delivered safely"}}
	for _, row := range r.Rows {
		safe := row.Result.Rounds - row.Result.Successes - row.Refused
		tbl.AddRow(row.Machine,
			fmt.Sprintf("%d/%d (%.1f%%)", row.Result.Successes, row.Result.Rounds, row.Result.Rate()*100),
			fmt.Sprintf("%d (%.1f%%)", row.Refused, float64(row.Refused)/float64(row.Result.Rounds)*100),
			fmt.Sprintf("%d (%.1f%%)", safe, float64(safe)/float64(row.Result.Rounds)*100),
		)
	}
	return tbl.Render(w)
}

// Sendmail runs the blind mailbox attack on all three machines.
func Sendmail(opt Options) (Result, error) {
	rounds := opt.rounds(500)
	seed := opt.seed(15013)
	machines := []machine.Profile{machine.Uniprocessor(), machine.SMP2(), machine.MultiCore()}
	scs := make([]core.Scenario, len(machines))
	for i, m := range machines {
		scs[i] = core.Scenario{
			Machine:  m,
			Victim:   victim.NewMailer(),
			Attacker: attack.NewFlipFlop(),
			// The mailer appends MessageSize bytes; success is growth of
			// the privileged file, not an ownership change.
			SuccessCheck: passwdGrew,
			FileSize:     4 << 10,
			Seed:         seed + int64(i)*7727,
		}
	}
	// Refused deliveries aren't part of CampaignResult; count them as the
	// rounds stream past instead of buffering every Round.
	refused := make([]int, len(machines))
	so := core.SweepOptions{OnRound: func(point, _ int, r core.Round) {
		if errors.Is(r.VictimErr, victim.ErrDeliveryRefused) {
			refused[point]++
		}
	}}
	results, err := opt.runSweepWith(scs, rounds, so)
	if err != nil {
		return nil, fmt.Errorf("sendmail: %w", err)
	}
	out := &SendmailResult{Rounds: rounds}
	for i, m := range machines {
		out.Rows = append(out.Rows, SendmailRow{Machine: m.Name, Result: results[i], Refused: refused[i]})
	}
	return out, nil
}

// passwdGrew reports whether the privileged file gained content.
func passwdGrew(f *fs.FS, p core.Paths, _ int) bool {
	info, err := f.LookupInfo(p.Passwd)
	if err != nil {
		return false
	}
	return info.Size > p.PasswdSize
}

// Eq1Row is one configuration of the Equation-1 term study.
type Eq1Row struct {
	Label string
	// PSuspended is the measured P(victim suspended in window).
	PSuspended float64
	// Observed is the measured success rate.
	Observed float64
	// Term names which Equation-1 factor the row exercises.
	Term string
}

// Eq1Result dissects Equation 1 term by term: on the uniprocessor the
// success rate tracks the measured suspension probability (the first
// term); on the SMP with a tiny window, success lives in the second term
// and degrades when background load takes the attacker's CPU — until
// elevated priority hands the attacker a dedicated processor again
// (§3.2/§3.3's discussion of P(attack scheduled), quantified).
type Eq1Result struct {
	Rows   []Eq1Row
	Rounds int
}

// Name implements Result.
func (r *Eq1Result) Name() string { return "eq1" }

// Render implements Result.
func (r *Eq1Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Equation 1 term study (%d rounds per row)\n", r.Rounds)
	fmt.Fprintf(w, "P(success) = P(susp)·P(sched|susp)·P(fin|susp) + P(run)·P(sched|run)·P(fin|run)\n\n")
	tbl := &report.Table{Headers: []string{
		"configuration", "P(susp) measured", "observed success", "exercises",
	}}
	for _, row := range r.Rows {
		tbl.AddRow(row.Label,
			fmt.Sprintf("%.1f%%", row.PSuspended*100),
			fmt.Sprintf("%.1f%%", row.Observed*100),
			row.Term,
		)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nOn one CPU success tracks P(susp); on the SMP the second term dominates\n")
	fmt.Fprintf(w, "and collapses when CPU hogs contend for the attacker's processor — unless\n")
	fmt.Fprintf(w, "the attacker's priority effectively dedicates a CPU to it again.\n")
	return nil
}

// Eq1 runs the term study.
func Eq1(opt Options) (Result, error) {
	rounds := opt.rounds(200)
	seed := opt.seed(16033)

	// First term: on the uniprocessor, success ≈ P(victim suspended).
	upSc := core.Scenario{
		Machine: machine.Uniprocessor(), Victim: victim.NewVi(), Attacker: attack.NewV1(),
		UseSyscall: "chown", FileSize: 500 << 10, Seed: seed, Trace: true,
	}

	// Second term: on the SMP with a 1-byte file the window is ~100µs and
	// the victim almost never suspends — success comes entirely from the
	// attacker being scheduled while the victim runs.
	smpSc := core.Scenario{
		Machine: machine.SMP2(), Victim: victim.NewVi(), Attacker: attack.NewV1(),
		UseSyscall: "chown", FileSize: 1, Seed: seed + 104717, Trace: true,
	}

	loaded := smpSc
	loaded.Seed += 104717
	loaded.LoadThreads = 3
	// Let the editor phase span several quanta so the window opens at a
	// uniform point of the hog/attacker CPU rotation.
	loaded.VictimStartupMax = 350 * time.Millisecond

	prioritized := loaded
	prioritized.Seed += 104717
	prioritized.AttackerNice = -10

	configs := []struct {
		label, term string
		sc          core.Scenario
	}{
		{"uniprocessor, vi 500KB, no load", "P(susp): success ≈ it", upSc},
		{"SMP, vi 1 byte, no load", "P(sched|running) ≈ 1", smpSc},
		{"SMP, vi 1 byte, 3 CPU hogs", "P(sched|running) < 1 under load", loaded},
		{"SMP, vi 1 byte, 3 hogs, attacker nice -10", "priority re-dedicates a CPU", prioritized},
	}
	scs := make([]core.Scenario, len(configs))
	for i, c := range configs {
		scs[i] = c.sc
	}
	results, err := opt.runSweep(scs, rounds)
	if err != nil {
		return nil, fmt.Errorf("eq1: %w", err)
	}
	out := &Eq1Result{Rounds: rounds}
	for i, c := range configs {
		out.Rows = append(out.Rows, Eq1Row{
			Label: c.label, Term: c.term,
			PSuspended: results[i].PSuspended(), Observed: results[i].Rate(),
		})
	}
	return out, nil
}
