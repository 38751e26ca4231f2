package core

// Crash-safe sweep checkpointing. A checkpoint file holds the committed
// per-point results of an interrupted sweep. Every time a point finishes
// (the OnPointDone hook, which fires exactly once per completed point, in
// commit order, and never for points cut short by cancellation), one
// line recording it is appended to the file, so committing a point costs
// the same whatever the sweep's size. Resuming validates the sweep's
// fingerprint (the hash of its point keys, key.go), restores the
// completed points verbatim, and runs only the remainder. Because each
// point's result depends solely on its own scenario and seed (workers
// share nothing across points but the pool), entries are independent of
// each other and the merged output is bit-identical to an uninterrupted
// run.
//
// Format 3 is line-oriented:
//
//	{"version":3,"fingerprint":F,"points":N}
//	{"point":i,"result":{...}}     one line per committed point
//
// A writer's first flush atomically replaces the file (temp file +
// rename) with the header, the entries it restored and the new one; that
// drops a torn tail. Every later flush appends one line. A crash
// mid-append can leave only a final line without its newline, which the
// loader drops (its point re-runs) — the same rule as campaignd's
// events.ndjson. A complete line that does not decode is corruption and
// is rejected. Versions 1 and 2 carried a fingerprint that left program
// parameters out of a point's identity; they are rejected by version,
// never trusted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// checkpointVersion is the on-disk format the writer produces and the
// only one the loader reads.
const checkpointVersion = 3

// checkpointHeader is a file's first line.
type checkpointHeader struct {
	Version     int    `json:"version"`
	Fingerprint uint64 `json:"fingerprint"`
	Points      int    `json:"points"`
}

type checkpointEntry struct {
	Point  int            `json:"point"`
	Result CampaignResult `json:"result"`
}

// SweepResume is a checkpointed sweep after its restore-and-replay step:
// the points an executor still has to run, and the commit path every
// executed point goes through. Build it with ResumeSweep.
type SweepResume struct {
	// Pending lists, ascending, the points the executor must run.
	Pending []int
	// Memoized counts the restored copies: pending points whose exact key
	// a checkpoint-restored point holds, settled with its result instead
	// of being simulated. Restored points themselves do not count.
	Memoized int

	points []SweepPoint
	store  *CheckpointStore
	done   func(point int, res CampaignResult) error
}

// ResumeSweep is the one restore-and-replay step of every checkpointed
// sweep, in-process (RunSweepPointsCheckpoint) or over a worker fleet
// (campaignd). It opens the checkpoint at path for the sweep — a file
// written for a different sweep is rejected by fingerprint, never merged
// — and then, in ascending index order and before any simulation,
// reports through done every point the file settles: a restored point
// as it is, and a pending point whose exact key a restored point holds
// as a copy of it, flushed to the file first. Copies follow the rules
// of memo.go: with options that make per-point execution observable,
// only restored points replay.
//
// done must be safe for concurrent calls with different points when the
// executor commits concurrently; an error from it stops the replay and
// is returned.
func ResumeSweep(path string, points []SweepPoint, opt SweepOptions, done func(point int, res CampaignResult) error) (*SweepResume, error) {
	keys, exact := pointKeys(points)
	store, err := openStore(path, fingerprintKeys(keys, opt.Adaptive), len(points))
	if err != nil {
		return nil, err
	}
	restored := store.Restored()
	var rep []int
	if !memoObservable(opt) {
		rep = memoReps(keys, exact, restored)
	}
	r := &SweepResume{points: points, store: store, done: done}
	for i := range points {
		if res, ok := restored[i]; ok {
			if err := done(i, res); err != nil {
				return nil, err
			}
			continue
		}
		if rep != nil {
			if res, ok := restored[rep[i]]; ok {
				if err := r.Commit(i, res); err != nil {
					return nil, err
				}
				r.Memoized++
				continue
			}
		}
		r.Pending = append(r.Pending, i)
	}
	return r, nil
}

// Commit settles one pending point: it is flushed to the checkpoint,
// then reported through done. It returns the first flush or done error.
func (r *SweepResume) Commit(point int, res CampaignResult) error {
	if err := r.store.Flush(point, res); err != nil {
		return err
	}
	return r.done(point, res)
}

// RunPending is the in-process executor: it runs the pending points
// through RunSweepSubset with opt (its OnPointDone replaced by Commit),
// so pending duplicates of one another are memoized there. The stats
// cover the executed work, plus Memoized in PointsMemoized. A
// Commit error fails the run ahead of the sweep's own outcome: a point
// that cannot be made durable must not pass for a completed one.
func (r *SweepResume) RunPending(opt SweepOptions) (SweepStats, error) {
	var commitErr atomic.Pointer[error]
	opt.OnPointDone = func(p int, res CampaignResult) {
		if err := r.Commit(p, res); err != nil {
			commitErr.CompareAndSwap(nil, &err)
		}
	}
	_, st, err := RunSweepSubset(r.points, r.Pending, opt)
	st.PointsMemoized += r.Memoized
	if cerr := commitErr.Load(); cerr != nil {
		return st, *cerr
	}
	return st, err
}

// RunSweepPointsCheckpoint is RunSweepPoints with opt-in crash-safe
// checkpointing. With an empty path it is RunSweepPoints exactly. With a
// path it is ResumeSweep followed by SweepResume.RunPending: the
// merged results are bit-identical to an uninterrupted RunSweepPoints
// over the same points (per-point results never depend on other
// points). The returned SweepStats covers only the work this call
// performed (see RunPending).
//
// SuccessCheck, NewGuard, and Chooser hooks cannot be fingerprinted
// (they are code); resuming with different hook behavior is the
// caller's responsibility, as with any seed-reuse mistake.
func RunSweepPointsCheckpoint(points []SweepPoint, opt SweepOptions, path string) ([]CampaignResult, SweepStats, error) {
	if path == "" {
		return RunSweepPoints(points, opt)
	}
	results := make([]CampaignResult, len(points))
	user := opt.OnPointDone
	rs, err := ResumeSweep(path, points, opt, func(p int, res CampaignResult) error {
		results[p] = res
		if user != nil {
			user(p, res)
		}
		return nil
	})
	if err != nil {
		return nil, SweepStats{}, err
	}
	st, err := rs.RunPending(opt)
	if err != nil {
		return nil, st, err
	}
	return results, st, nil
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

// parseCheckpoint decodes a format-3 checkpoint (see the file comment)
// written for the sweep with fingerprint fp over npoints points. Entries
// for the same point overwrite each other in file order.
func parseCheckpoint(data []byte, fp uint64, npoints int) (map[int]CampaignResult, error) {
	first, rest, complete := bytes.Cut(data, []byte{'\n'})
	var h checkpointHeader
	if err := json.Unmarshal(first, &h); err != nil {
		return nil, fmt.Errorf("corrupt: %w", err)
	}
	switch {
	case h.Version == 1 || h.Version == 2:
		return nil, fmt.Errorf("checkpoint version %d predates point keys (want %d); delete it to start over", h.Version, checkpointVersion)
	case h.Version != checkpointVersion:
		return nil, fmt.Errorf("checkpoint version %d, want %d", h.Version, checkpointVersion)
	case !complete:
		return nil, fmt.Errorf("corrupt: header line has no newline")
	case h.Fingerprint != fp || h.Points != npoints:
		return nil, fmt.Errorf("written for a different sweep configuration (delete it to start over)")
	}
	done := make(map[int]CampaignResult)
	// Every newline-terminated line after the header is an entry; a final
	// fragment without its newline is a torn append.
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
		if *e.Point < 0 || *e.Point >= npoints {
			return nil, fmt.Errorf("point %d out of range [0, %d)", *e.Point, npoints)
		}
		done[*e.Point] = *e.Result
	}
	return done, nil
}

// checkpointWriter makes completed points durable. flush is called from
// OnPointDone under a point's fold lock; the writer's own mutex orders
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

// CheckpointStore is a sweep's checkpoint file, open for commits.
// ResumeSweep opens one for every checkpointed sweep; OpenCheckpoint
// exposes the same store to external schedulers. Flush makes one more
// completed point durable, so any file a store wrote resumes under any
// runner.
type CheckpointStore struct {
	w        *checkpointWriter
	restored map[int]CampaignResult
}

// OpenCheckpoint opens (or implicitly creates) the checkpoint at path
// for the given sweep grid. A file written for a different sweep is
// rejected by fingerprint, never merged. Flush is safe for concurrent
// use; write errors are sticky and surface from every later Flush.
func OpenCheckpoint(path string, points []SweepPoint, ad AdaptiveStop) (*CheckpointStore, error) {
	return openStore(path, SweepFingerprint(points, ad), len(points))
}

func openStore(path string, fp uint64, npoints int) (*CheckpointStore, error) {
	if path == "" {
		return nil, fmt.Errorf("core: checkpoint: empty path")
	}
	done, err := loadCheckpoint(path, fp, npoints)
	if err != nil {
		return nil, err
	}
	return &CheckpointStore{
		w:        &checkpointWriter{path: path, fp: fp, points: npoints, restored: done},
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
