package core

import (
	"fmt"

	"tocttou/internal/fault"
	"tocttou/internal/metrics"
	"tocttou/internal/stats"
)

// SeedStride decorrelates per-round RNG streams: round i of a campaign
// with base seed s runs at seed s + (i+1)*SeedStride. It is exported so
// callers composing sweeps can verify their per-point base-seed strides
// keep the derived streams pairwise disjoint (they are whenever distinct
// points' base seeds differ by less than SeedStride, since equal derived
// seeds would force the base difference to be a nonzero multiple of it).
const SeedStride = 1_000_003

// CampaignResult aggregates many rounds of one scenario.
type CampaignResult struct {
	// Rounds is the number of completed rounds.
	Rounds int
	// Successes counts rounds where the attacker captured the
	// privileged file.
	Successes int
	// Detected counts rounds where the attacker launched its attack
	// (only meaningful when the scenario traces).
	Detected int
	// AttackErrors counts rounds whose attack step failed outright.
	AttackErrors int
	// SuspendedRounds counts the rounds whose window was observed and
	// in which the victim lost its CPU inside it; over
	// Metrics.WindowUs.N() it estimates Equation 1's P(victim suspended).
	SuspendedRounds int
	// Metrics is the campaign's one latency record and its observability
	// summary: Welford mean/variance of the per-round kernel counters,
	// and summaries plus log₂ histograms of the paper's §3.4 laxity L
	// (LUs) and detection latency D (DUs), over rounds where both were
	// measurable, and of the vulnerability window (WindowUs), over rounds
	// where it was observed. The latencies require a traced scenario. It
	// folds in commit order, so it is bit-identical across GOMAXPROCS
	// like the rest of the result.
	Metrics metrics.Point
	// Faults totals the injected faults delivered across all rounds
	// (all-zero unless the scenario armed a fault plan).
	Faults fault.Counters
	// VictimErrors counts rounds whose victim program failed outright —
	// under fault injection, the rounds where the victim's robustness
	// policy gave up.
	VictimErrors int
}

// addRound folds one completed round into the accumulator. The integer
// counters commute, but the Welford summaries are float-order-sensitive:
// callers that want bit-reproducible summaries must fold rounds in
// ascending round-index order (the sweep engine's reorder buffer
// guarantees exactly this).
func (r *CampaignResult) addRound(round Round) {
	r.Rounds++
	if round.Success {
		r.Successes++
	}
	if round.LD.Detected {
		r.Detected++
	}
	if round.AttackerErr != nil {
		r.AttackErrors++
	}
	if round.VictimErr != nil {
		r.VictimErrors++
	}
	r.Faults.Add(round.Faults)
	if round.WindowOK && round.VictimSuspended {
		r.SuspendedRounds++
	}
	r.Metrics.Observe(round.Kernel, round.End, round.LD, round.Window, round.WindowOK, round.Faults)
}

// PSuspended returns the measured P(victim suspended within the window),
// or 0 when no windows were observed.
func (r CampaignResult) PSuspended() float64 {
	n := r.Metrics.WindowUs.N()
	if n == 0 {
		return 0
	}
	return float64(r.SuspendedRounds) / float64(n)
}

// Rate returns the observed success rate in [0, 1].
func (r CampaignResult) Rate() float64 { return r.Proportion().Rate() }

// Proportion returns successes/rounds for interval computation.
func (r CampaignResult) Proportion() stats.Proportion {
	return stats.Proportion{Successes: r.Successes, Trials: r.Rounds}
}

// String renders a one-line summary.
func (r CampaignResult) String() string {
	return fmt.Sprintf("success %d/%d (%.1f%%), L=%.1f±%.1fµs D=%.1f±%.1fµs",
		r.Successes, r.Rounds, r.Rate()*100,
		r.Metrics.LUs.Mean(), r.Metrics.LUs.Stdev(), r.Metrics.DUs.Mean(), r.Metrics.DUs.Stdev())
}

// RunCampaign executes rounds of the scenario with derived per-round
// seeds, in parallel across host CPUs. Results are deterministic for a
// given scenario seed regardless of the degree of parallelism.
func RunCampaign(sc Scenario, rounds int) (CampaignResult, error) {
	res, _, err := RunCampaignRounds(sc, rounds, false)
	return res, err
}

// RunCampaignRounds is RunCampaign, optionally returning the per-round
// outcomes (with event traces stripped to keep memory flat) for callers
// that need distributions rather than summaries.
//
// It is a single-point sweep: rounds stream into the summary as they
// finish (no O(rounds) buffering unless keep is set), and the first
// failing round cancels the remainder instead of being reported only
// after every round has run.
func RunCampaignRounds(sc Scenario, rounds int, keep bool) (CampaignResult, []Round, error) {
	if rounds <= 0 {
		return CampaignResult{}, nil, fmt.Errorf("core: campaign needs rounds > 0, got %d", rounds)
	}
	var kept []Round
	var opt SweepOptions
	if keep {
		kept = make([]Round, 0, rounds)
		// Commits arrive in round-index order, so kept is the ordered
		// per-round record the buffered implementation used to build.
		opt.OnRound = func(_, _ int, r Round) { kept = append(kept, r) }
	}
	res, _, err := RunSweepPoints([]SweepPoint{{Scenario: sc, Rounds: rounds}}, opt)
	if err != nil {
		if se, ok := sweepErrorAs(err); ok {
			return CampaignResult{}, nil, fmt.Errorf("core: round %d: %w", se.Round, se.Err)
		}
		return CampaignResult{}, nil, err
	}
	return res[0], kept, nil
}
