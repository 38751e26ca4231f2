package core

// In-process sweep-point memoization. A sweep's points are frequently not
// all distinct — ablation grids repeat their control column, and
// explorer-driven re-sweeps repeat converged points verbatim. Every round
// is a pure function of its scenario and seed, so two points with equal
// exact keys (key.go) provably produce identical CampaignResults;
// RunSweepPoints therefore executes only the first of each duplicate
// class and copies its result to the rest (CampaignResult is a pure
// value — fixed arrays, no pointers — so the copies share no storage).
// A resumed sweep applies the same rule against the points its store
// restored (ResumeSweep).
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
// completion out to every duplicate — the sweep's store therefore
// receives memoized points like executed ones. Execution-shaping results
// are still exact for memoized sweeps: duplicate points simply
// contribute no RoundsExecuted/RoundsCommitted, which
// SweepStats.PointsMemoized makes visible.

import (
	"bytes"
	"slices"
)

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
// claim their keys before any other point, lowest index first. It
// returns nil when there is no duplicate; callers consult
// memoObservable first.
//
// Points are matched on their key's hash, and a hash match is confirmed
// by encoding both keys and comparing bytes, so only duplicates (and
// hash collisions) pay for a comparison. The hashes come from sums when
// the caller already computed them (ResumeSweep's fingerprint pass);
// otherwise each key streams through one reused buffer. No key outlives
// the pass.
func memoReps(points []SweepPoint, restored map[int]CampaignResult, sums []keySum) []int {
	idx := keyIndex{points: points, sums: sums, loaded: -1, first: make(map[uint64]int)}
	claimed := make([]int, 0, len(restored))
	for i := range restored {
		claimed = append(claimed, i)
	}
	slices.Sort(claimed)
	for _, i := range claimed {
		if idx.load(i) {
			if _, ok := idx.find(i); !ok {
				idx.insert(i)
			}
		}
	}
	rep := make([]int, len(points))
	dups := 0
	for i := range points {
		rep[i] = i
		if _, ok := restored[i]; ok || !idx.load(i) {
			continue
		}
		if r, ok := idx.find(i); ok {
			rep[i] = r
			dups++
		} else {
			idx.insert(i)
		}
	}
	if dups == 0 {
		return nil
	}
	return rep
}

// keyIndex finds the first point holding an exact key. first maps a
// key's hash to the first point inserted with it; a different key that
// collides on the hash goes to spill, keyed by its bytes.
type keyIndex struct {
	points []SweepPoint
	sums   []keySum  // precomputed hashes, or nil
	hash   uint64    // the loaded point's key hash
	loaded int       // the point whose key w holds, or -1
	w, o   keyWriter // w: the key being looked up; o: a candidate's
	first  map[uint64]int
	spill  map[string]int
}

// load makes point i the one looked up and reports whether its key is
// exact.
func (x *keyIndex) load(i int) bool {
	if x.sums != nil {
		x.hash = x.sums[i].hash
		return x.sums[i].exact
	}
	x.w.point(x.points[i])
	x.hash, x.loaded = fnv64a(x.w.b), i
	return x.w.exact
}

// find returns the point that claimed the loaded point i's key.
func (x *keyIndex) find(i int) (int, bool) {
	r, ok := x.first[x.hash]
	if !ok {
		return 0, false
	}
	if x.loaded != i {
		x.w.point(x.points[i])
		x.loaded = i
	}
	if x.o.point(x.points[r]); bytes.Equal(x.o.b, x.w.b) {
		return r, true
	}
	r, ok = x.spill[string(x.w.b)]
	return r, ok
}

// insert claims the loaded key for point i, after find missed it.
func (x *keyIndex) insert(i int) {
	if _, taken := x.first[x.hash]; !taken {
		x.first[x.hash] = i
		return
	}
	// A hash collision: find encoded point i's key into w.
	if x.spill == nil {
		x.spill = make(map[string]int)
	}
	x.spill[string(x.w.b)] = i
}
