package core

// Crash-safe sweep checkpointing. A checkpoint file holds the committed
// per-point results of an interrupted sweep: points 0, 1, 2, … in order,
// whatever order they finished in. Every point that finishes (the
// OnPointDone hook, which fires exactly once per completed point and
// never for points cut short by cancellation) is handed to the sweep's
// committer, which holds it until every lower point is written and
// appends all points ready since its last write in one write, so
// committing never stalls the goroutine that finished it. Resuming
// validates the sweep's fingerprint (the hash of its point keys,
// key.go), restores the written prefix verbatim, and runs the rest.
// Each point's result depends solely on its own scenario and seed, so
// the merged output, and the file, are bit-identical to an
// uninterrupted run's.
//
// Format 3 is line-oriented:
//
//	{"version":3,"fingerprint":F,"points":N}
//	{"point":i,"result":{...}}     one line per committed point
//
// The file is a linelog.Log, the append-only log under every durable
// sweep store. A new or empty file gets its header in the same write as
// its first batch, and every batch is one write and one fsync. Opening
// the file keeps its header and the leading run of entries for points
// 0, 1, 2, … and truncates everything after that run — a torn final
// line, a line garbled on disk, or an older build's out-of-order tail —
// so exactly the points cut off re-run. A file whose bytes are a torn
// prefix of the header starts over. Any other first line that is not
// this sweep's header rejects the file, untouched: another sweep's
// fingerprint, a foreign file, or versions 1 and 2, whose fingerprint
// left program parameters out of a point's identity and is never
// trusted.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"tocttou/internal/linelog"
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
// log in campaignd. Restored returns the prefix the store held when
// opened, points 0 to k-1; callers must not modify it. A resumed sweep
// appends every batch, from one goroutine at a time, before handing the
// batch on, and closes the store when it drains. Append must not retain
// a batch.
type SweepStore interface {
	Restored() []CampaignResult
	Append(batch []PointResult) error
	Close() error
}

// SweepResume is a sweep after its restore-and-replay step: the points
// an executor still has to run, and the commit path every executed
// point goes through. Build it with ResumeSweep and end it with Drain.
//
// Committing is a hand-off in index order. Commit holds a point until
// every lower one is restored, committed or skipped, then queues it;
// one committer goroutine makes the queued points durable in batches —
// whatever is queued when it wakes — by appending them to the store and
// then handing the batch to done. A point therefore reaches done only
// after it is durable, and store and done see points once, in order.
type SweepResume struct {
	// Pending lists, ascending, the points the executor must run.
	Pending []int

	points []SweepPoint
	store  SweepStore
	done   func(batch []PointResult) error

	mu      sync.Mutex
	wake    sync.Cond
	next    int                     // the watermark: every lower point is restored, queued or skipped
	held    map[int]*CampaignResult // points committed (nil: skipped) above the watermark
	queue   []PointResult           // queued, not yet written
	err     error                   // the first failed batch's error; sticky
	closing bool                    // Drain has begun: empty the queue and exit
	exited  chan struct{}           // non-nil once the committer runs; closed on exit
}

// ResumeSweep is the one restore-and-replay step of every durable
// sweep, in-process (RunSweepPointsCheckpoint) or over a worker fleet
// (campaignd). store holds what earlier runs of this sweep committed;
// the caller opened it for these points (OpenCheckpoint rejects a file
// written for a different sweep by fingerprint). Before any simulation
// the restored prefix reaches done as one batch, in ascending index
// order; every later point is pending. On error the store is closed.
//
// done receives batches from one goroutine at a time: this replay, then
// the committer. It must not retain a batch, whose slice is reused. An
// error from it fails the batch: the replay's is returned, a committer
// batch's is sticky (see Commit).
func ResumeSweep(store SweepStore, points []SweepPoint, done func(batch []PointResult) error) (*SweepResume, error) {
	restored := store.Restored()
	r := &SweepResume{points: points, store: store, done: done, next: len(restored), held: make(map[int]*CampaignResult)}
	r.wake.L = &r.mu
	var settled []PointResult
	for i, res := range restored {
		settled = append(settled, PointResult{i, res})
	}
	for i := r.next; i < len(points); i++ {
		r.Pending = append(r.Pending, i)
	}
	if len(settled) > 0 {
		if err := done(settled); err != nil {
			store.Close()
			return nil, err
		}
	}
	return r, nil
}

// Commit hands one executed pending point, not yet committed, to the
// committer without I/O. Once a batch has failed, Commit returns that
// error instead, as it does after Drain: a point that cannot be made
// durable must not pass for a completed one.
func (r *SweepResume) Commit(point int, res CampaignResult) error { return r.settle(point, &res) }

// Skip moves the watermark past a pending point without writing it.
func (r *SweepResume) Skip(point int) error { return r.settle(point, nil) }

// settle is pointAgg's round reorder buffer, one level up.
func (r *SweepResume) settle(point int, res *CampaignResult) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, dup := r.held[point]
	switch {
	case r.err != nil:
		return r.err
	case r.closing:
		return fmt.Errorf("core: checkpoint: point %d committed after Drain", point)
	case point < r.next || point >= len(r.points) || dup:
		return fmt.Errorf("core: checkpoint: point %d is not pending or is committed already", point)
	}
	r.held[point] = res
	for res, ok := r.held[r.next]; ok; res, ok = r.held[r.next] {
		if res != nil {
			r.queue = append(r.queue, PointResult{r.next, *res})
		}
		delete(r.held, r.next)
		r.next++
	}
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

// Drain waits until every queued point has been appended and handed to
// done, drops those held behind an unfinished point, closes the store
// and returns the first batch error. Repeatable; Commit fails after it.
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
// then drains the committer. The stats cover the executed work. A
// commit error fails the run ahead of the sweep's own outcome.
func (r *SweepResume) RunPending(opt SweepOptions) (SweepStats, error) {
	// Commit errors are sticky; Drain reports the first.
	opt.OnPointDone = func(p int, res CampaignResult) { r.Commit(p, res) }
	_, st, err := RunSweepSubset(r.points, r.Pending, opt)
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
// points). OnPointDone fires from the commit path in point order, after
// the point's checkpoint line is durable, and every call has been made
// by the time this returns. The returned SweepStats covers only the
// work this call performed (see RunPending).
//
// SuccessCheck, NewGuard, and Chooser hooks cannot be fingerprinted
// (they are code); resuming with different hook behavior is the
// caller's responsibility, as with any seed-reuse mistake.
func RunSweepPointsCheckpoint(points []SweepPoint, opt SweepOptions, path string) ([]CampaignResult, SweepStats, error) {
	if path == "" {
		return RunSweepPoints(points, opt)
	}
	store, err := openCheckpoint(path, SweepFingerprint(points), len(points))
	if err != nil {
		return nil, SweepStats{}, err
	}
	results := make([]CampaignResult, len(points))
	user := opt.OnPointDone
	rs, err := ResumeSweep(store, points, func(batch []PointResult) error {
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

// CheckpointStore is a sweep's checkpoint file, open for commits: the
// SweepStore of RunSweepPointsCheckpoint, and a store external
// schedulers can drive directly. It is a codec over a linelog.Log: it
// checks the file's lines when it opens and encodes the lines it
// appends. Append and Flush are safe for concurrent use; the mutex
// orders them. Write errors are sticky: after the first, every write
// returns it.
type CheckpointStore struct {
	fp     uint64
	points int
	header []byte // the header line this sweep's file begins with
	// restored holds the entries the file held when opened.
	restored []CampaignResult

	mu     sync.Mutex
	log    *linelog.Log
	headed bool // the file holds its header line
	buf    bytes.Buffer
	enc    *json.Encoder
}

// OpenCheckpoint opens (or implicitly creates) the checkpoint at path
// for the given sweep grid. A file written for a different sweep is
// rejected by fingerprint, never merged. The AdaptiveStop argument is
// ignored.
func OpenCheckpoint(path string, points []SweepPoint, _ AdaptiveStop) (*CheckpointStore, error) {
	if path == "" {
		return nil, fmt.Errorf("core: checkpoint: empty path")
	}
	return openCheckpoint(path, SweepFingerprint(points), len(points))
}

// openCheckpoint opens the checkpoint at path for the sweep with
// fingerprint fp over npoints points. The file keeps its header and the
// leading run of entries for points 0, 1, 2, …; everything after that
// run is truncated, and those points re-run.
func openCheckpoint(path string, fp uint64, npoints int) (*CheckpointStore, error) {
	header, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Fingerprint: fp, Points: npoints})
	if err != nil {
		return nil, err
	}
	c := &CheckpointStore{fp: fp, points: npoints, header: append(header, '\n')}
	c.enc = json.NewEncoder(&c.buf)
	if c.log, err = linelog.Open(path, c.check); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	return c, nil
}

// check is the store's line check (linelog.Open): the header first,
// then one entry per line, each for the point after the last.
func (c *CheckpointStore) check(line []byte) (bool, error) {
	complete := line[len(line)-1] == '\n'
	if !c.headed {
		return c.checkHeader(line, complete)
	}
	var e struct {
		Point  *int            `json:"point"`
		Result *CampaignResult `json:"result"`
	}
	if !complete || json.Unmarshal(line, &e) != nil || e.Point == nil || e.Result == nil || *e.Point != len(c.restored) || *e.Point >= c.points {
		return false, nil
	}
	c.restored = append(c.restored, *e.Result)
	return true, nil
}

// checkHeader checks the file's first line. A torn line that is a
// prefix of this sweep's header is a torn creation: the file starts
// over. Any other line that is not this sweep's format-3 header rejects
// the file, which stays as it is.
func (c *CheckpointStore) checkHeader(line []byte, complete bool) (bool, error) {
	if !complete && bytes.HasPrefix(c.header, line) {
		return false, nil
	}
	var h checkpointHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return false, fmt.Errorf("corrupt: %w", err)
	}
	switch {
	case h.Version == 1 || h.Version == 2:
		return false, fmt.Errorf("checkpoint version %d predates point keys (want %d); delete it to start over", h.Version, checkpointVersion)
	case h.Version != checkpointVersion:
		return false, fmt.Errorf("checkpoint version %d, want %d", h.Version, checkpointVersion)
	case !complete:
		return false, fmt.Errorf("corrupt: header line has no newline")
	case h.Fingerprint != c.fp || h.Points != c.points:
		return false, fmt.Errorf("written for a different sweep configuration (delete it to start over)")
	}
	c.headed = true
	return true, nil
}

// Restored returns the prefix the file held when opened, points 0 to
// k-1; callers must not modify it.
func (c *CheckpointStore) Restored() []CampaignResult { return c.restored }

// Close releases the append handle, if one is open.
func (c *CheckpointStore) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.Close()
}

// Flush makes one completed point durable: Append of that point.
func (c *CheckpointStore) Flush(point int, res CampaignResult) error {
	if point < 0 || point >= c.points {
		return fmt.Errorf("core: checkpoint: point %d out of range [0, %d)", point, c.points)
	}
	return c.Append([]PointResult{{point, res}})
}

// Append makes a batch durable with one write and one fsync, in the
// order given, the header first in a file that has none yet. It returns
// the store's first write error (sticky: a checkpoint that cannot be
// written means the crash-safety the caller asked for is gone).
func (c *CheckpointStore) Append(batch []PointResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf.Reset()
	if !c.headed {
		c.buf.Write(c.header)
	}
	for _, e := range batch {
		if err := c.enc.Encode(e); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	if err := c.log.Append(c.buf.Bytes()); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	c.headed = true
	return nil
}
