package core

// Lease-range sweep execution. The campaign service's worker fleet
// partitions a compiled sweep's points into leases and hands each lease
// to a subprocess; the subprocess re-compiles the same spec and runs
// only its leased indices through RunSweepSubset. Because every point's
// result is a pure function of its own scenario and seed (workers share
// nothing across points but the pool), a subset run commits results
// bit-identical to the same points inside a full RunSweepPoints — which
// is what makes lease requeue after a worker crash a checkable
// invariant instead of a hope.

import "fmt"

// RunSweepSubset runs the points selected by indices — a worker's lease
// — out of the full sweep grid, returning their results in indices
// order. Hook callbacks (OnRound, OnPointDone) and any SweepError
// report the caller's original point indices, never subset-local ones.
// Indices must be in-range and distinct; budgets are validated as in
// RunSweepPoints. Each selected point's result is bit-identical to the
// result the same point produces inside a full-grid run.
func RunSweepSubset(points []SweepPoint, indices []int, opt SweepOptions) ([]CampaignResult, SweepStats, error) {
	if len(indices) == 0 {
		return nil, SweepStats{}, nil
	}
	sub := make([]SweepPoint, len(indices))
	seen := make(map[int]bool, len(indices))
	for k, idx := range indices {
		if idx < 0 || idx >= len(points) {
			return nil, SweepStats{}, fmt.Errorf("core: sweep subset index %d out of range [0, %d)", idx, len(points))
		}
		if seen[idx] {
			return nil, SweepStats{}, fmt.Errorf("core: sweep subset index %d selected twice", idx)
		}
		seen[idx] = true
		sub[k] = points[idx]
	}
	subOpt := opt
	if user := opt.OnRound; user != nil {
		subOpt.OnRound = func(p, round int, r Round) { user(indices[p], round, r) }
	}
	if user := opt.OnPointDone; user != nil {
		subOpt.OnPointDone = func(p int, res CampaignResult) { user(indices[p], res) }
	}
	res, stats, err := RunSweepPoints(sub, subOpt)
	if err != nil {
		if se, ok := sweepErrorAs(err); ok {
			return nil, stats, &SweepError{Point: indices[se.Point], Round: se.Round, Seed: se.Seed, Err: se.Err}
		}
		return nil, stats, err
	}
	return res, stats, nil
}
