package scenario

// Assertion evaluation: pass/fail bounds on the campaign outcome,
// evaluated after the sweep completes. The first failing assertion turns
// into an *AssertionError naming the assertion, its selection, the
// measured value, and the violated bound — the CLI exits non-zero on it.

import (
	"fmt"

	"tocttou/internal/core"
)

// AssertionError reports the first failed assertion.
type AssertionError struct {
	// Index is the assertion's position in the spec's assertions list.
	Index     int
	Assertion Assertion
	// Value is the measured metric.
	Value float64
}

func (e *AssertionError) Error() string {
	a := e.Assertion
	where := "aggregate"
	switch {
	case a.Point >= 0:
		where = fmt.Sprintf("point %d", a.Point)
	case a.Template != "":
		where = fmt.Sprintf("template %q", a.Template)
	}
	bound := ""
	switch {
	case a.HasMin && e.Value < a.Min:
		bound = fmt.Sprintf("below min %v", a.Min)
	case a.HasMax && e.Value > a.Max:
		bound = fmt.Sprintf("above max %v", a.Max)
	}
	return fmt.Sprintf("assertion %d failed: %s over %s = %v, %s", e.Index, a.Metric, where, e.Value, bound)
}

// CheckAssertions evaluates every assertion against the outcome and
// returns the first failure (nil when all pass).
func (o *Outcome) CheckAssertions() error {
	for i, a := range o.Spec.Assertions {
		v, err := o.evalMetric(a)
		if err != nil {
			return fmt.Errorf("assertion %d: %w", i, err)
		}
		if (a.HasMin && v < a.Min) || (a.HasMax && v > a.Max) {
			return &AssertionError{Index: i, Assertion: a, Value: v}
		}
	}
	return nil
}

// evalMetric measures one assertion's metric over its selection. The
// aggregate metrics sum the selected points' counters before forming
// rates, so a template selector measures the template's pooled behavior
// rather than an average of per-member rates.
func (o *Outcome) evalMetric(a Assertion) (float64, error) {
	var sel []int
	switch {
	case a.Point >= 0:
		if a.Point >= len(o.Results) {
			return 0, fmt.Errorf("point %d out of range (%d points)", a.Point, len(o.Results))
		}
		sel = []int{a.Point}
	case a.Template != "":
		for i, m := range o.Compiled.Meta {
			if m.Template == a.Template {
				sel = append(sel, i)
			}
		}
		if len(sel) == 0 {
			return 0, fmt.Errorf("template %q selected no points", a.Template)
		}
	default:
		sel = make([]int, len(o.Results))
		for i := range sel {
			sel[i] = i
		}
	}

	if pointMetrics[a.Metric] {
		res := o.Results[sel[0]]
		switch a.Metric {
		case "l_mean_us":
			return res.Metrics.LUs.Mean(), nil
		case "d_mean_us":
			return res.Metrics.DUs.Mean(), nil
		case "window_mean_us":
			return res.Metrics.WindowUs.Mean(), nil
		}
	}

	var sum core.CampaignResult
	for _, i := range sel {
		r := o.Results[i]
		sum.Rounds += r.Rounds
		sum.Successes += r.Successes
		sum.VictimErrors += r.VictimErrors
		sum.AttackErrors += r.AttackErrors
		sum.Faults.Add(r.Faults)
	}
	n := float64(sum.Rounds)
	switch a.Metric {
	case "success_rate":
		if n == 0 {
			return 0, nil
		}
		return float64(sum.Successes) / n, nil
	case "successes":
		return float64(sum.Successes), nil
	case "rounds":
		return n, nil
	case "victim_errors":
		return float64(sum.VictimErrors), nil
	case "attack_errors":
		return float64(sum.AttackErrors), nil
	case "fs_errors_per_round":
		return perRound(float64(sum.Faults.FSErrors), n), nil
	case "sem_interrupts_per_round":
		return perRound(float64(sum.Faults.SemInterrupts), n), nil
	case "kills_per_round":
		return perRound(float64(sum.Faults.Kills), n), nil
	case "restarts_per_round":
		return perRound(float64(sum.Faults.Restarts), n), nil
	}
	return 0, fmt.Errorf("unknown metric %q", a.Metric)
}

func perRound(total, rounds float64) float64 {
	if rounds == 0 {
		return 0
	}
	return total / rounds
}
