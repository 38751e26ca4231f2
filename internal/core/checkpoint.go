package core

// Crash-safe sweep checkpointing. A checkpoint file holds the committed
// per-point results of an interrupted sweep. Every time a point finishes
// (the onPointDone hook, which fires exactly once per completed point, in
// commit order, and never for points cut short by cancellation), one
// line recording it is appended to the file, so committing a point costs
// the same whatever the sweep's size. Resuming validates a fingerprint of
// the sweep configuration, restores the completed points verbatim, and
// runs only the remainder. Because each point's result depends solely on
// its own scenario and seed (workers share nothing across points but the
// pool), entries are independent of each other and the merged output is
// bit-identical to an uninterrupted run.
//
// Format 2 is line-oriented:
//
//	{"version":2,"fingerprint":F,"points":N}
//	{"point":i,"result":{...}}     one line per committed point
//
// A writer's first flush atomically replaces the file (temp file +
// rename) with the header, the entries it restored and the new one; that
// drops a torn tail and upgrades a version-1 file. Every later flush
// appends one line. A crash mid-append can leave only a final line
// without its newline, which the loader drops (its point re-runs) — the
// same rule as campaignd's events.ndjson. A complete line that does not
// decode is corruption and is rejected. Version-1 files (one JSON object
// holding a "done" array, only ever replaced atomically) still load.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"sync"
)

// checkpointVersion is the on-disk format the writer produces; the
// loader also reads version 1.
const checkpointVersion = 2

// checkpointHeader is a file's first line. A version-1 file is a single
// line that also carries every entry in Done.
type checkpointHeader struct {
	Version     int               `json:"version"`
	Fingerprint uint64            `json:"fingerprint"`
	Points      int               `json:"points"`
	Done        []checkpointEntry `json:"done,omitempty"`
}

type checkpointEntry struct {
	Point  int            `json:"point"`
	Result CampaignResult `json:"result"`
}

// RunSweepPointsCheckpoint is RunSweepPoints with opt-in crash-safe
// checkpointing. With an empty path it is RunSweepPoints exactly. With a
// path, completed points already recorded in the file are restored
// without re-simulation, the remaining points run as a sub-sweep whose
// completions are made durable as they commit, and the merged
// results are bit-identical to an uninterrupted RunSweepPoints over the
// same points (per-point results never depend on other points). The
// returned SweepStats covers only the work this call performed; restored
// points contribute nothing to it.
//
// A file written for a different sweep (point count, scenarios, seeds,
// budgets, or adaptive config) is rejected by fingerprint, not silently
// merged. SuccessCheck, NewGuard, and Chooser hooks cannot be
// fingerprinted (they are code); resuming with different hook behavior is
// the caller's responsibility, as with any seed-reuse mistake.
func RunSweepPointsCheckpoint(points []SweepPoint, opt SweepOptions, path string) ([]CampaignResult, SweepStats, error) {
	if path == "" {
		return RunSweepPoints(points, opt)
	}
	fp := sweepFingerprint(points, opt.Adaptive)
	done, err := loadCheckpoint(path, fp, len(points))
	if err != nil {
		return nil, SweepStats{}, err
	}

	results := make([]CampaignResult, len(points))
	// A restored point can stand in for an identically-configured pending
	// one exactly as in-process memoization would (memo.go states the
	// conditions): the copy is flushed to the file like a simulated
	// completion and the duplicate never re-runs, so a resumed sweep does
	// not re-simulate — or double-count — work the first run already
	// recorded for the same configuration.
	var restored map[memoKey]CampaignResult
	memoOK := !memoObservable(opt)
	if memoOK {
		restored = make(map[memoKey]CampaignResult, len(done))
	}
	for i := range points {
		if res, ok := done[i]; ok {
			results[i] = res
			if memoOK {
				if k, keyable := memoKeyOf(points[i]); keyable {
					restored[k] = res
				}
			}
		}
	}
	w := &checkpointWriter{path: path, fp: fp, points: len(points), restored: done}
	var remaining []SweepPoint
	var remapped []int // remapped[subIdx] = original point index
	restoredCopies := 0
	for i, p := range points {
		if res, ok := done[i]; ok {
			// Restored points replay through the public completion hook in
			// ascending index order, before any simulation: a resumed sweep's
			// observer (the campaign service's event stream) sees every
			// point exactly once, whether it was simulated this run or last.
			if opt.OnPointDone != nil {
				opt.OnPointDone(i, res)
			}
			continue
		}
		if memoOK && p.Rounds > 0 {
			if k, keyable := memoKeyOf(p); keyable {
				if res, hit := restored[k]; hit {
					results[i] = res
					w.flush(i, res)
					if opt.OnPointDone != nil {
						opt.OnPointDone(i, res)
					}
					restoredCopies++
					continue
				}
			}
		}
		remaining = append(remaining, p)
		remapped = append(remapped, i)
	}
	if len(remaining) == 0 {
		st := SweepStats{PointsMemoized: restoredCopies}
		if werr := w.firstErr(); werr != nil {
			return nil, st, fmt.Errorf("core: checkpoint: %w", werr)
		}
		return results, st, nil
	}

	sub := opt
	user := opt.OnPointDone
	sub.OnPointDone = nil // re-dispatched below with the caller's indices
	sub.onPointDone = func(p int, res CampaignResult) {
		w.flush(remapped[p], res)
		if user != nil {
			user(remapped[p], res)
		}
	}
	subRes, st, err := RunSweepPoints(remaining, sub)
	st.PointsMemoized += restoredCopies
	if werr := w.firstErr(); werr != nil {
		// A checkpoint that cannot be written is a failed run: continuing
		// would silently drop the crash-safety the caller asked for.
		return nil, st, fmt.Errorf("core: checkpoint: %w", werr)
	}
	if err != nil {
		if se, ok := sweepErrorAs(err); ok {
			// Translate the sub-sweep's point index back to the caller's.
			return nil, st, &SweepError{Point: remapped[se.Point], Round: se.Round, Seed: se.Seed, Err: se.Err}
		}
		return nil, st, err
	}
	for si, r := range subRes {
		results[remapped[si]] = r
	}
	return results, st, nil
}

// SweepFingerprint is the FNV-1a hash of a sweep's result-determining
// configuration — the same value the checkpoint file embeds. External
// result stores (the campaign service's completed-job cache) key on it:
// two sweeps with equal fingerprints run bit-identical campaigns, modulo
// the code-valued hooks the hash cannot see (SuccessCheck, NewGuard,
// Chooser — it records only their presence).
func SweepFingerprint(points []SweepPoint, ad AdaptiveStop) uint64 {
	return sweepFingerprint(points, ad)
}

// sweepFingerprint hashes the sweep-shaping configuration: everything
// plain-valued that changes per-point results. Function and interface
// fields (SuccessCheck, NewGuard, Chooser) are code and cannot be hashed.
func sweepFingerprint(points []SweepPoint, ad AdaptiveStop) uint64 {
	h := fnv.New64a()
	// The "v1" tag is frozen: campaignd's job ids and the worker fleet's
	// fingerprint checks key on this hash, and the checkpoint format is
	// versioned by its header instead.
	fmt.Fprintf(h, "v1 n=%d adaptive=%v|", len(points), ad)
	for _, p := range points {
		hashPoint(h, p)
	}
	return h.Sum64()
}

// hashPoint writes one point's result-determining record into a
// fingerprint hash — the shared unit of sweepFingerprint and the
// exported per-point PointFingerprint (subset.go), so the two can never
// drift apart.
func hashPoint(h io.Writer, p SweepPoint) {
	sc := p.Scenario
	victim, attacker := "", ""
	if sc.Victim != nil {
		victim = sc.Victim.Name()
	}
	if sc.Attacker != nil {
		attacker = sc.Attacker.Name()
	}
	fmt.Fprintf(h, "r=%d m=%s/%d v=%s a=%s sys=%s size=%d seed=%d trace=%v su=%v uid=%d gid=%d load=%d nice=%d chooser=%v ph=%d ns=%v sb=%d hz=%v wd=%v faults=%v|",
		p.Rounds, sc.Machine.Name, sc.Machine.CPUs, victim, attacker,
		sc.UseSyscall, sc.FileSize, sc.Seed, sc.Trace, sc.VictimStartupMax,
		sc.AttackerUID, sc.AttackerGID, sc.LoadThreads, sc.AttackerNice,
		sc.Chooser != nil, sc.PhaseSlots, sc.NoiseSlots, sc.StallBound,
		sc.Horizon, sc.Watchdog, sc.Faults)
}

// loadCheckpoint reads and validates an existing checkpoint file. A
// missing file is an empty checkpoint; a present but mismatched one is an
// error (stale files must be deleted deliberately, never merged).
func loadCheckpoint(path string, fp uint64, npoints int) (map[int]CampaignResult, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[int]CampaignResult{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	done, err := parseCheckpoint(data, fp, npoints)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	return done, nil
}

// parseCheckpoint decodes a version-1 or version-2 checkpoint (see the
// file comment for both layouts) written for the sweep with fingerprint
// fp over npoints points. Entries for the same point overwrite each
// other in file order.
func parseCheckpoint(data []byte, fp uint64, npoints int) (map[int]CampaignResult, error) {
	first, rest, complete := bytes.Cut(data, []byte{'\n'})
	var h checkpointHeader
	if err := json.Unmarshal(first, &h); err != nil {
		return nil, fmt.Errorf("corrupt: %w", err)
	}
	var entries []checkpointEntry
	switch h.Version {
	case 1:
		if len(bytes.TrimSpace(rest)) > 0 {
			return nil, fmt.Errorf("corrupt: data after the version-1 object")
		}
		entries, rest = h.Done, nil
	case checkpointVersion:
		if !complete || h.Done != nil {
			return nil, fmt.Errorf("corrupt: malformed version-%d header", checkpointVersion)
		}
	default:
		return nil, fmt.Errorf("version %d, want %d or 1", h.Version, checkpointVersion)
	}
	if h.Fingerprint != fp || h.Points != npoints {
		return nil, fmt.Errorf("written for a different sweep configuration (delete it to start over)")
	}
	done := make(map[int]CampaignResult, len(entries))
	add := func(e checkpointEntry) error {
		if e.Point < 0 || e.Point >= npoints {
			return fmt.Errorf("point %d out of range [0, %d)", e.Point, npoints)
		}
		done[e.Point] = e.Result
		return nil
	}
	for _, e := range entries {
		if err := add(e); err != nil {
			return nil, err
		}
	}
	// Version 2: every newline-terminated line after the header is an
	// entry; a final fragment without its newline is a torn append.
	for line := 2; len(rest) > 0; line++ {
		var text []byte
		if text, rest, complete = bytes.Cut(rest, []byte{'\n'}); !complete {
			break
		}
		var e struct {
			Point  *int            `json:"point"`
			Result *CampaignResult `json:"result"`
		}
		if err := json.Unmarshal(text, &e); err != nil || e.Point == nil || e.Result == nil {
			return nil, fmt.Errorf("corrupt: line %d is not a checkpoint entry", line)
		}
		if err := add(checkpointEntry{Point: *e.Point, Result: *e.Result}); err != nil {
			return nil, err
		}
	}
	return done, nil
}

// checkpointWriter makes completed points durable. flush is called from
// onPointDone under a point's fold lock; the writer's own mutex orders
// concurrent completions of different points. Write errors are sticky —
// the first one is reported once the sweep drains.
type checkpointWriter struct {
	path   string
	fp     uint64
	points int

	mu sync.Mutex
	// restored holds the entries loaded from the file until the first
	// flush rewrites them; nil from then on, when flushes only append.
	restored  map[int]CampaignResult
	appending bool
	err       error
}

func (w *checkpointWriter) flush(point int, res CampaignResult) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	entry, err := appendEntry(nil, point, res)
	if err != nil {
		w.err = err
		return
	}
	if w.appending {
		w.err = appendFile(w.path, entry)
		return
	}
	data, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Fingerprint: w.fp, Points: w.points})
	if err != nil {
		w.err = err
		return
	}
	data = append(data, '\n')
	idx := make([]int, 0, len(w.restored))
	for p := range w.restored {
		if p != point {
			idx = append(idx, p)
		}
	}
	sort.Ints(idx)
	for _, p := range idx {
		if data, err = appendEntry(data, p, w.restored[p]); err != nil {
			w.err = err
			return
		}
	}
	// Atomic replace: a crash mid-write leaves either the previous
	// checkpoint or the new one, never a torn header.
	tmp := w.path + ".tmp"
	if err := os.WriteFile(tmp, append(data, entry...), 0o644); err != nil {
		w.err = err
		return
	}
	if err := os.Rename(tmp, w.path); err != nil {
		w.err = err
		return
	}
	w.restored = nil
	w.appending = true
}

// appendEntry appends one newline-terminated entry line to buf.
func appendEntry(buf []byte, point int, res CampaignResult) ([]byte, error) {
	line, err := json.Marshal(checkpointEntry{Point: point, Result: res})
	if err != nil {
		return buf, err
	}
	return append(append(buf, line...), '\n'), nil
}

// appendFile writes line to the end of an existing file in one write.
func appendFile(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(line)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *checkpointWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// CheckpointStore exposes the sweep checkpoint file to an external
// scheduler — the campaign service's worker-fleet supervisor, which
// commits points as lease results arrive instead of through a single
// in-process sweep. OpenCheckpoint validates the file against the sweep
// configuration exactly as RunSweepPointsCheckpoint would, and Flush
// makes one more completed point durable through the same writer, so a
// file written through a CheckpointStore and one written by
// RunSweepPointsCheckpoint over the same points are interchangeable:
// either runner resumes from either file.
type CheckpointStore struct {
	w        *checkpointWriter
	restored map[int]CampaignResult
}

// OpenCheckpoint opens (or implicitly creates) the checkpoint at path
// for the given sweep grid. A file written for a different sweep is
// rejected by fingerprint, never merged. Flush is safe for concurrent
// use; write errors are sticky and surface from every later Flush.
func OpenCheckpoint(path string, points []SweepPoint, ad AdaptiveStop) (*CheckpointStore, error) {
	if path == "" {
		return nil, fmt.Errorf("core: checkpoint: empty path")
	}
	fp := sweepFingerprint(points, ad)
	done, err := loadCheckpoint(path, fp, len(points))
	if err != nil {
		return nil, err
	}
	return &CheckpointStore{
		w:        &checkpointWriter{path: path, fp: fp, points: len(points), restored: done},
		restored: done,
	}, nil
}

// Restored returns the completions the file held when opened, keyed by
// point index. Flush never modifies the map; callers must not either.
func (c *CheckpointStore) Restored() map[int]CampaignResult { return c.restored }

// Flush makes one completed point durable: the first call atomically
// rewrites the file, later calls append one line. It returns the
// store's first write error (sticky, as in the checkpointed sweep
// runner: a checkpoint that cannot be written means the crash-safety the
// caller asked for is gone).
func (c *CheckpointStore) Flush(point int, res CampaignResult) error {
	if point < 0 || point >= c.w.points {
		return fmt.Errorf("core: checkpoint: point %d out of range [0, %d)", point, c.w.points)
	}
	c.w.flush(point, res)
	if err := c.w.firstErr(); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}
