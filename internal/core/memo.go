package core

// In-process sweep-point memoization. A sweep's points are frequently not
// all distinct — ablation grids repeat their control column, and
// explorer-driven re-sweeps repeat converged points verbatim. Every round
// is a pure function of its scenario and seed, so two points with equal
// exact keys (key.go) provably produce identical CampaignResults;
// RunSweepPoints therefore executes only the first of each duplicate
// class and copies its result to the rest (CampaignResult is a pure
// value — fixed arrays, no pointers — so the copies share no storage).
// A checkpointed resume applies the same rule against the points its
// file restored (ResumeSweep).
//
// Memoization must never change what a caller observes, so it stands
// down whenever per-point execution is observable: a round callback
// installed (each executed round must be reported), adaptive stopping
// enabled (PointsStopped accounting is per executed point), the
// crash-test stop knob set, or a point whose key is not exact (it
// carries a success-check, guard or chooser hook, or a func-valued
// program field). The OnPointDone completion hook is the one observer
// memoization composes with: a duplicate point completes the moment its
// representative does, so RunSweepPoints fans the representative's
// completion out to every duplicate — the checkpoint writer therefore
// flushes memoized points like executed ones. Execution-shaping results
// are still exact for memoized sweeps: duplicate points simply
// contribute no RoundsExecuted/RoundsCommitted, which
// SweepStats.PointsMemoized makes visible.

// memoObservable reports whether the options make per-point execution
// observable in a way memoization cannot reproduce. OnPointDone is
// deliberately absent: completions of duplicates are fanned out, so the
// hook composes with memoization (checkpointed sweeps dedupe like plain
// ones).
func memoObservable(opt SweepOptions) bool {
	return opt.OnRound != nil || opt.stopAfterPoints != 0 || opt.Adaptive.enabled()
}

// memoReps maps every point to the point whose result it copies:
// rep[i] == i for a point that must run (or was restored), otherwise the
// index of the first point with the same exact key. Restored points
// claim their keys before any other point. keys and exact are
// pointKeys(points). It returns nil when there is no duplicate; callers
// consult memoObservable first.
func memoReps(keys []string, exact []bool, restored map[int]CampaignResult) []int {
	first := make(map[string]int, len(keys))
	for i := range restored {
		if r, ok := first[keys[i]]; exact[i] && (!ok || i < r) {
			first[keys[i]] = i
		}
	}
	rep := make([]int, len(keys))
	dups := 0
	for i, key := range keys {
		rep[i] = i
		if _, ok := restored[i]; ok || !exact[i] {
			continue
		}
		if r, ok := first[key]; ok {
			rep[i] = r
			dups++
		} else {
			first[key] = i
		}
	}
	if dups == 0 {
		return nil
	}
	return rep
}
