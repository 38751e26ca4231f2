package core

// Crash-safe sweep checkpointing. A checkpoint file holds the committed
// per-point results of an interrupted sweep. Every point that finishes
// (the OnPointDone hook, which fires exactly once per completed point
// and never for points cut short by cancellation) is handed to the
// sweep's committer, which appends the lines of every point queued since
// its last write in one write, so committing a point costs the same
// whatever the sweep's size and never stalls the goroutine that
// finished it. Resuming validates the sweep's fingerprint (the hash of
// its point keys, key.go), restores the completed points verbatim, and
// runs only the remainder. Because each point's result depends solely on
// its own scenario and seed (workers share nothing across points but the
// pool), entries are independent of each other and the merged output is
// bit-identical to an uninterrupted run.
//
// Format 3 is line-oriented:
//
//	{"version":3,"fingerprint":F,"points":N}
//	{"point":i,"result":{...}}     one line per committed point
//
// A writer's first write atomically replaces the file (temp file +
// rename) with the header, the entries it restored and the new ones;
// that drops a torn tail. Every later write appends one line per point.
// A crash mid-append can leave only a final line without its newline,
// which the loader drops (its point re-runs). A complete line that does
// not decode is corruption and is rejected. Versions 1 and 2 carried a
// fingerprint that left program parameters out of a point's identity;
// they are rejected by version, never trusted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
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

// PointResult is one committed point: its index in the sweep grid and
// its result. It is also a checkpoint entry line's encoding.
type PointResult struct {
	Point  int            `json:"point"`
	Result CampaignResult `json:"result"`
}

// SweepStore is the durable record a resumed sweep restores from and
// commits to: a CheckpointStore for the CLI's checkpoint files, a job's
// log in campaignd. Restored returns the completions the store held when
// opened, keyed by point index; callers must not modify the map.
// A resumed sweep appends every batch, from one goroutine at a time,
// before handing the batch on, and closes the store when it drains.
// Append must not retain a batch.
type SweepStore interface {
	Restored() map[int]CampaignResult
	Append(batch []PointResult) error
	Close() error
}

// SweepResume is a sweep after its restore-and-replay step: the points
// an executor still has to run, and the commit path every executed
// point goes through. Build it with ResumeSweep and end it with Drain.
//
// Committing is a hand-off. Commit queues the point and returns; one
// committer goroutine makes the queued points durable in batches — a
// batch is whatever is queued when it wakes — by appending them to the
// store and then handing the batch to done. A point therefore reaches
// done only after it is durable, and every point reaches done exactly
// once.
type SweepResume struct {
	// Pending lists, ascending, the points the executor must run.
	Pending []int
	// Memoized counts the restored copies: pending points whose exact key
	// a restored point holds, settled with its result instead of being
	// simulated. Restored points themselves do not count.
	Memoized int

	points []SweepPoint
	sums   []keySum // every point's key hash, for RunPending's memo pass
	store  SweepStore
	done   func(batch []PointResult) error

	mu      sync.Mutex
	wake    sync.Cond
	queue   []PointResult // committed, not yet written
	err     error         // the first failed batch's error; sticky
	closing bool          // Drain has begun: empty the queue and exit
	exited  chan struct{} // non-nil once the committer runs; closed on exit
}

// ResumeSweep is the one restore-and-replay step of every durable
// sweep, in-process (RunSweepPointsCheckpoint) or over a worker fleet
// (campaignd). store holds what earlier runs of this sweep committed;
// the caller opened it for these points (OpenCheckpoint rejects a file
// written for a different sweep by fingerprint). Before any simulation
// ResumeSweep settles every point it can: a restored point as it is,
// and a pending point whose exact key a restored point holds as a copy
// of it. The copies are appended to the store first; then all settled
// points reach done as one batch, in ascending index order. Copies
// follow the rules of memo.go: with options that make per-point
// execution observable, only restored points replay. On error the
// store is closed.
//
// done receives batches from one goroutine at a time: this replay, then
// the committer. It must not retain a batch, whose slice is reused. An
// error from it fails the batch: the replay's is returned, a committer
// batch's is sticky (see Commit).
func ResumeSweep(store SweepStore, points []SweepPoint, opt SweepOptions, done func(batch []PointResult) error) (*SweepResume, error) {
	sums := make([]keySum, len(points))
	fingerprints(points, opt.Adaptive, sums)
	restored := store.Restored()
	var rep []int
	if len(restored) > 0 && !memoObservable(opt) {
		rep = memoReps(points, restored, sums)
	}
	r := &SweepResume{points: points, sums: sums, store: store, done: done}
	r.wake.L = &r.mu
	var settled, copies []PointResult
	for i := range points {
		if res, ok := restored[i]; ok {
			settled = append(settled, PointResult{i, res})
			continue
		}
		if rep != nil {
			if res, ok := restored[rep[i]]; ok {
				copies = append(copies, PointResult{i, res})
				settled = append(settled, PointResult{i, res})
				continue
			}
		}
		r.Pending = append(r.Pending, i)
	}
	r.Memoized = len(copies)
	var err error
	if len(copies) > 0 {
		err = store.Append(copies)
	}
	if err == nil && len(settled) > 0 {
		err = done(settled)
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	return r, nil
}

// Commit queues one executed pending point for the committer and
// returns without I/O. Once a batch has failed, Commit returns that
// error instead, as it does after Drain: a point that cannot be made
// durable must not pass for a completed one.
func (r *SweepResume) Commit(point int, res CampaignResult) error {
	if point < 0 || point >= len(r.points) {
		return fmt.Errorf("core: checkpoint: point %d out of range [0, %d)", point, len(r.points))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.err != nil:
		return r.err
	case r.closing:
		return fmt.Errorf("core: checkpoint: point %d committed after Drain", point)
	}
	r.queue = append(r.queue, PointResult{point, res})
	if r.exited == nil {
		r.exited = make(chan struct{})
		go r.commitLoop()
	}
	r.wake.Signal()
	return nil
}

// commitLoop is the committer: it swaps the queue for its spare batch,
// appends the batch to the store, hands it to done, and repeats
// until Drain has begun and the queue is empty. After a failure it
// drops what is still queued.
func (r *SweepResume) commitLoop() {
	defer close(r.exited)
	var batch []PointResult
	r.mu.Lock()
	for {
		for len(r.queue) == 0 && !r.closing {
			r.wake.Wait()
		}
		if len(r.queue) == 0 {
			r.mu.Unlock()
			return
		}
		batch, r.queue = r.queue, batch[:0]
		failed := r.err != nil
		r.mu.Unlock()
		var err error
		if !failed {
			if err = r.store.Append(batch); err == nil {
				err = r.done(batch)
			}
		}
		r.mu.Lock()
		if err != nil && r.err == nil {
			r.err = err
		}
	}
}

// Drain waits until every committed point has been appended and handed
// to done, closes the store, and returns the first error of any
// batch. It is safe to call more than once; Commit fails after it.
func (r *SweepResume) Drain() error {
	r.mu.Lock()
	r.closing = true
	exited := r.exited
	r.wake.Signal()
	r.mu.Unlock()
	if exited != nil {
		<-exited
	}
	cerr := r.store.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = cerr
	}
	return r.err
}

// RunPending is the in-process executor: it runs the pending points
// through RunSweepSubset with opt (its OnPointDone replaced by Commit),
// so pending duplicates of one another are memoized there, then drains
// the committer. The stats cover the executed work, plus Memoized in
// PointsMemoized. A commit error fails the run ahead of the sweep's own
// outcome.
func (r *SweepResume) RunPending(opt SweepOptions) (SweepStats, error) {
	// Commit errors are sticky; Drain reports the first.
	opt.OnPointDone = func(p int, res CampaignResult) { r.Commit(p, res) }
	opt.keySums = r.sums
	_, st, err := RunSweepSubset(r.points, r.Pending, opt)
	st.PointsMemoized += r.Memoized
	if derr := r.Drain(); derr != nil {
		return st, derr
	}
	return st, err
}

// RunSweepPointsCheckpoint is RunSweepPoints with opt-in crash-safe
// checkpointing. With an empty path it is RunSweepPoints exactly. With a
// path it opens the checkpoint there and runs ResumeSweep over it
// followed by SweepResume.RunPending: the
// merged results are bit-identical to an uninterrupted RunSweepPoints
// over the same points (per-point results never depend on other
// points). OnPointDone fires from the commit path, after the point's
// checkpoint line is written, and every call has been made by the time
// this returns. The returned SweepStats covers only the work this call
// performed (see RunPending).
//
// SuccessCheck, NewGuard, and Chooser hooks cannot be fingerprinted
// (they are code); resuming with different hook behavior is the
// caller's responsibility, as with any seed-reuse mistake.
func RunSweepPointsCheckpoint(points []SweepPoint, opt SweepOptions, path string) ([]CampaignResult, SweepStats, error) {
	if path == "" {
		return RunSweepPoints(points, opt)
	}
	store, err := OpenCheckpoint(path, points, opt.Adaptive)
	if err != nil {
		return nil, SweepStats{}, err
	}
	results := make([]CampaignResult, len(points))
	user := opt.OnPointDone
	rs, err := ResumeSweep(store, points, opt, func(batch []PointResult) error {
		for _, pr := range batch {
			results[pr.Point] = pr.Result
			if user != nil {
				user(pr.Point, pr.Result)
			}
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

// CheckpointStore is a sweep's checkpoint file, open for commits: the
// SweepStore of RunSweepPointsCheckpoint, and a store external
// schedulers can drive directly. Flush makes one more completed point
// durable, so any file a store wrote resumes under any runner. Append
// and Flush are safe for concurrent use; the mutex orders them. Write
// errors are sticky: after the first, every write returns it.
type CheckpointStore struct {
	path   string
	fp     uint64
	points int

	mu sync.Mutex
	// restored holds the entries the file held when opened until the
	// first write rewrites them; nil from then on, when writes only
	// append.
	restored  map[int]CampaignResult
	appending bool
	// f is the append handle the first Append opens; it stays open until
	// Close. A store written only through Flush opens the file for every
	// append.
	f   *os.File
	buf bytes.Buffer // the batch's encoded lines, reused
	enc *json.Encoder
	err error
}

// OpenCheckpoint opens (or implicitly creates) the checkpoint at path
// for the given sweep grid. A file written for a different sweep is
// rejected by fingerprint, never merged.
func OpenCheckpoint(path string, points []SweepPoint, ad AdaptiveStop) (*CheckpointStore, error) {
	if path == "" {
		return nil, fmt.Errorf("core: checkpoint: empty path")
	}
	fp := SweepFingerprint(points, ad)
	done, err := loadCheckpoint(path, fp, len(points))
	if err != nil {
		return nil, err
	}
	return &CheckpointStore{path: path, fp: fp, points: len(points), restored: done}, nil
}

// Restored returns the completions the file held when opened, keyed by
// point index. Read it before the first write, which rewrites them and
// drops the store's map; callers must not modify it.
func (c *CheckpointStore) Restored() map[int]CampaignResult { return c.restored }

// Close releases the append handle, if one is open.
func (c *CheckpointStore) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// Flush makes one completed point durable: the first call atomically
// rewrites the file, later calls append one line. It returns the
// store's first write error (sticky, as in the checkpointed sweep
// runner: a checkpoint that cannot be written means the crash-safety the
// caller asked for is gone).
func (c *CheckpointStore) Flush(point int, res CampaignResult) error {
	if point < 0 || point >= c.points {
		return fmt.Errorf("core: checkpoint: point %d out of range [0, %d)", point, c.points)
	}
	return c.write([]PointResult{{point, res}}, false)
}

// Append makes a batch durable, as a resumed sweep's committer does; the
// append handle it opens stays open until Close.
func (c *CheckpointStore) Append(batch []PointResult) error {
	return c.write(batch, true)
}

// write makes a batch durable in file order. The first write atomically
// replaces the file (temp file + rename) with the header, the restored
// entries the batch does not hold and the batch's entries — a crash
// mid-write leaves the previous file or the new one, never a torn
// header — and, with hold, opens an append handle that stays open until
// Close. Every later write appends the batch's lines with one write:
// through the handle while it is open, else by opening and closing the
// file.
func (c *CheckpointStore) write(batch []PointResult, hold bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		if c.err = c.writeLocked(batch, hold); c.err != nil {
			c.err = fmt.Errorf("core: checkpoint: %w", c.err)
		}
	}
	return c.err
}

func (c *CheckpointStore) writeLocked(batch []PointResult, hold bool) error {
	c.buf.Reset()
	if c.enc == nil {
		c.enc = json.NewEncoder(&c.buf)
	}
	if !c.appending {
		if err := c.enc.Encode(checkpointHeader{Version: checkpointVersion, Fingerprint: c.fp, Points: c.points}); err != nil {
			return err
		}
		inBatch := make(map[int]bool, len(batch))
		for _, e := range batch {
			inBatch[e.Point] = true
		}
		idx := make([]int, 0, len(c.restored))
		for p := range c.restored {
			if !inBatch[p] {
				idx = append(idx, p)
			}
		}
		slices.Sort(idx)
		for _, p := range idx {
			if err := c.enc.Encode(PointResult{p, c.restored[p]}); err != nil {
				return err
			}
		}
	}
	for _, e := range batch {
		if err := c.enc.Encode(e); err != nil {
			return err
		}
	}
	switch {
	case c.f != nil:
		_, err := c.f.Write(c.buf.Bytes())
		return err
	case c.appending:
		return appendFile(c.path, c.buf.Bytes())
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, c.buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return err
	}
	c.restored = nil
	c.appending = true
	if !hold {
		return nil
	}
	f, err := os.OpenFile(c.path, os.O_WRONLY|os.O_APPEND, 0)
	c.f = f
	return err
}

// appendFile writes data to the end of an existing file in one write.
func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
