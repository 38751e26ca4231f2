package campaignd

// Job state and durability. A job is one submitted scenario campaign,
// backed by a directory under <data>/jobs/<id>:
//
//	spec            the submitted scenario bytes, verbatim
//	state.json      the job's metadata and state (atomic replace)
//	checkpoint.json core's crash-safe sweep checkpoint (format 3: one
//	                appended line per committed point)
//	events.ndjson   the point-event log, one JSON line per committed
//	                point, fsynced before any watcher sees the event
//	report.txt      the final rendering, written once on completion
//
// The files are the only copy: streams read events.ndjson and report
// requests read report.txt, so memory holds only the work in progress.
// Everything a restarted server needs is in that directory: a finished
// job restores from state.json alone, an unfinished one re-parses and
// re-compiles its spec deterministically, the checkpoint restores
// completed points bit-identically, and the event log preserves the
// stream offsets watchers hold — a client reconnecting across a kill -9
// with `Last-Point: k` receives exactly the events it has not seen,
// because an event is appended and fsynced before it is broadcast.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

// Job states. queued and running jobs resume after a restart; done,
// failed, and asserted states are terminal. interrupted marks a job the
// draining server stopped at a point boundary — a restart resumes it
// from its checkpoint.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// terminalState reports whether a job in this state will make no further
// progress on this server instance. interrupted is terminal for event
// streams (the server is draining) but resumes after a restart.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateInterrupted
}

// JobInfo is a job's client-visible metadata, served by the submit, get,
// and list endpoints and persisted (minus Cached) as state.json.
type JobInfo struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Filename    string `json:"filename"`
	State       string `json:"state"`
	SubmittedAt string `json:"submitted_at"`
	// Points is the compiled grid size; Committed counts point events in
	// the log. Memoized counts the points the finishing run copied from
	// a checkpoint-restored point with the same key instead of
	// simulating them (core.SweepResume.Memoized). The resume step counts
	// them before any executor runs, so the number is the same
	// in-process and over a worker fleet; restored points themselves do
	// not count.
	Points    int `json:"points"`
	Committed int `json:"committed"`
	Memoized  int `json:"memoized"`
	// Cached marks a submit response served from the completed store:
	// an identical re-submission of a finished campaign re-runs nothing.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure for state "failed"; Watchdog flags that
	// the failure was a virtual-time watchdog expiry (a diagnosed
	// runaway round), surfaced so operators can tell runaways from bugs.
	Error    string `json:"error,omitempty"`
	Watchdog bool   `json:"watchdog,omitempty"`
	// AssertionFailure carries the first failed spec assertion for an
	// otherwise completed campaign (the report still renders).
	AssertionFailure string `json:"assertion_failure,omitempty"`
	// Quarantined lists poison point indices a worker fleet set aside
	// after repeated worker kills (fleet mode only): the campaign is done,
	// but these points have no committed result.
	Quarantined []int `json:"quarantined,omitempty"`
}

// PointEvent is one committed sweep point on the NDJSON event stream.
// Seq is the event's position in the job's log: a client that has
// received k events resumes with `Last-Point: k` and is replayed the
// log's suffix — no duplicates, no drops, across server restarts.
type PointEvent struct {
	Type         string  `json:"type"` // "point"
	Seq          int     `json:"seq"`
	Point        int     `json:"point"`
	Label        string  `json:"label"`
	Rounds       int     `json:"rounds"`
	Successes    int     `json:"successes"`
	Rate         float64 `json:"rate"`
	VictimErrors int     `json:"victim_errors"`
	AttackErrors int     `json:"attack_errors"`
}

// EndEvent terminates an event stream: the job reached a state in which
// this server instance will emit no further point events.
type EndEvent struct {
	Type             string `json:"type"` // "end"
	State            string `json:"state"`
	Points           int    `json:"points"`
	Committed        int    `json:"committed"`
	Memoized         int    `json:"memoized"`
	Error            string `json:"error,omitempty"`
	Watchdog         bool   `json:"watchdog,omitempty"`
	AssertionFailure string `json:"assertion_failure,omitempty"`
	Quarantined      []int  `json:"quarantined,omitempty"`
}

// job is the server-side state of one campaign. spec, compiled and seen
// serve only a job that can still run; a terminal transition releases
// them, and a finished job holds its info alone — its events and report
// are read from its directory. info.Committed counts the complete lines
// of events.ndjson that streams may read.
type job struct {
	id  string
	dir string

	mu       sync.Mutex
	info     JobInfo
	spec     *scenario.Spec
	compiled *scenario.Compiled
	seen     map[int]bool  // point index -> already in the log
	update   chan struct{} // closed and replaced on every change
	elog     logFile       // events.ndjson append handle while running
}

func newJob(id, dir string, spec *scenario.Spec, compiled *scenario.Compiled, filename, submittedAt string) *job {
	return &job{
		id:  id,
		dir: dir,
		info: JobInfo{
			ID:          id,
			Name:        spec.Name,
			Filename:    filename,
			State:       StateQueued,
			SubmittedAt: submittedAt,
			Points:      len(compiled.Points),
		},
		spec:     spec,
		compiled: compiled,
		seen:     make(map[int]bool),
		update:   make(chan struct{}),
	}
}

func (j *job) specPath() string       { return filepath.Join(j.dir, "spec") }
func (j *job) statePath() string      { return filepath.Join(j.dir, "state.json") }
func (j *job) checkpointPath() string { return filepath.Join(j.dir, "checkpoint.json") }
func (j *job) eventsPath() string     { return filepath.Join(j.dir, "events.ndjson") }
func (j *job) reportPath() string     { return filepath.Join(j.dir, "report.txt") }

// snapshot returns the job's current info under its lock.
func (j *job) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// bump wakes every stream blocked on this job.
func (j *job) bump() {
	close(j.update)
	j.update = make(chan struct{})
}

// setState transitions the job and persists state.json. A transition
// into a terminal state releases the grid: nothing reads it again on
// this server instance. Call without j.mu held.
func (j *job) setState(mutate func(*JobInfo)) error {
	j.mu.Lock()
	mutate(&j.info)
	if terminalState(j.info.State) {
		j.releaseLocked()
	}
	info := j.info
	j.bump()
	j.mu.Unlock()
	return writeJSONAtomic(j.statePath(), info)
}

// releaseLocked drops what only a runnable job needs: its spec, its
// compiled grid and the log's point index. Caller holds j.mu.
func (j *job) releaseLocked() {
	j.spec, j.compiled, j.seen = nil, nil, nil
}

// endEventLocked builds the stream-terminating event for a terminal
// state. Caller holds j.mu.
func (j *job) endEventLocked() json.RawMessage {
	ev := EndEvent{
		Type:             "end",
		State:            j.info.State,
		Points:           j.info.Points,
		Committed:        j.info.Committed,
		Memoized:         j.info.Memoized,
		Error:            j.info.Error,
		Watchdog:         j.info.Watchdog,
		AssertionFailure: j.info.AssertionFailure,
		Quarantined:      j.info.Quarantined,
	}
	data, err := json.Marshal(ev)
	if err != nil {
		// EndEvent is plain values; Marshal cannot fail. Keep the stream
		// well-formed regardless.
		data = []byte(`{"type":"end","state":"failed","error":"internal: end event encoding"}`)
	}
	return data
}

// commitPoints appends a batch of committed points to the event log:
// durable first (one write, one fsync for the whole batch), visible
// second (Committed grows by the batch, one broadcast). Points already
// in the log — checkpoint-restored points on resume — are skipped, so
// the log holds every point exactly once. Only the job's committer
// calls it, one batch at a time, so the log's tail cannot move between
// numbering the lines and publishing them; j.mu guards the reads and
// the publish, never the file I/O. A failed write or sync closes the
// log: a later line must never land after a partial one. buf is the
// caller's reused line buffer.
func (j *job) commitPoints(batch []core.PointResult, buf *bytes.Buffer) (appended int, err error) {
	j.mu.Lock()
	if terminalState(j.info.State) {
		state := j.info.State
		j.mu.Unlock()
		return 0, fmt.Errorf("job %s is %s: %d points cannot commit", j.id, state, len(batch))
	}
	elog, seen, meta, seq := j.elog, j.seen, j.compiled.Meta, j.info.Committed
	j.mu.Unlock()
	if elog == nil {
		return 0, fmt.Errorf("job %s: event log is not open", j.id)
	}
	// seen changes only in the publish step below, on this goroutine.
	buf.Reset()
	enc := json.NewEncoder(buf)
	for _, pr := range batch {
		if seen[pr.Point] {
			continue
		}
		res := pr.Result
		ev := PointEvent{
			Type:         "point",
			Seq:          seq + appended,
			Point:        pr.Point,
			Label:        meta[pr.Point].Label,
			Rounds:       res.Rounds,
			Successes:    res.Successes,
			Rate:         res.Rate(),
			VictimErrors: res.VictimErrors,
			AttackErrors: res.AttackErrors,
		}
		if err := enc.Encode(ev); err != nil {
			return 0, err
		}
		appended++
	}
	if appended == 0 {
		return 0, nil
	}
	_, err = elog.Write(buf.Bytes())
	if err == nil {
		err = elog.Sync()
	}
	j.mu.Lock()
	if err != nil {
		j.elog = nil
		j.mu.Unlock()
		elog.Close()
		return 0, err
	}
	for _, pr := range batch {
		seen[pr.Point] = true
	}
	j.info.Committed += appended
	j.bump()
	j.mu.Unlock()
	return appended, nil
}

// logFile is the event log's append handle.
type logFile interface {
	io.Writer
	Sync() error
	Close() error
}

// openLogFile opens events.ndjson for appending. Tests replace it to
// inject write and sync failures.
var openLogFile = func(path string) (logFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// openEventLog opens the append handle commitPoints writes through.
func (j *job) openEventLog() error {
	f, err := openLogFile(j.eventsPath())
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.elog = f
	j.mu.Unlock()
	return nil
}

func (j *job) closeEventLog() {
	j.mu.Lock()
	f := j.elog
	j.elog = nil
	j.mu.Unlock()
	if f != nil {
		f.Close()
	}
}

// loadJob restores a job from its directory. A done job whose report
// exists, and a failed job, are their files: state.json restores the
// info, and nothing is parsed, compiled or replayed. Any other job is
// made ready to resume: its spec re-parses and re-compiles — both are
// deterministic — and its event log is recounted. A spec that no longer
// loads (a hand-edited directory) surfaces as a failed job rather than a
// crashed server.
func loadJob(dir string) (*job, error) {
	var info JobInfo
	data, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("%s: corrupt state.json: %w", dir, err)
	}
	info.Cached = false
	j := &job{
		id:     info.ID,
		dir:    dir,
		info:   info,
		update: make(chan struct{}),
	}
	switch info.State {
	case StateFailed:
		return j, nil
	case StateDone:
		if _, err := os.Stat(j.reportPath()); err == nil {
			return j, nil
		}
		// The state said done but the report is gone: re-run from the
		// checkpoint (every point restores; only the rendering redoes).
		j.info.State = StateInterrupted
	}
	specData, err := os.ReadFile(j.specPath())
	if err != nil {
		return nil, err
	}
	spec, perr := scenario.LoadBytes(info.Filename, specData)
	if perr == nil {
		j.spec = spec
		j.compiled, perr = scenario.Compile(spec)
	}
	if perr != nil {
		j.info.State = StateFailed
		j.info.Error = fmt.Sprintf("stored spec no longer loads: %v", perr)
		j.releaseLocked() // not yet shared: no lock needed
		return j, writeJSONAtomic(j.statePath(), j.info)
	}
	j.seen = make(map[int]bool)
	if err := j.loadEventLog(len(j.compiled.Points)); err != nil {
		return nil, err
	}
	return j, nil
}

// loadEventLog recounts a resumable job's events.ndjson. The log is its
// leading run of complete point lines, each with its own position as
// seq and a distinct point index below points. Anything after that run
// — a torn final line from a kill -9 between write and fsync, or a line
// corrupted on disk — is truncated away, so the resumed run's first
// append starts on a line boundary instead of gluing onto a fragment.
// Points cut off are still in the checkpoint and re-emit from it.
func (j *job) loadEventLog(points int) error {
	j.info.Committed = 0
	data, err := os.ReadFile(j.eventsPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	n, size := 0, 0
	for {
		end := bytes.IndexByte(data[size:], '\n')
		if end < 0 {
			break
		}
		var ev PointEvent
		if json.Unmarshal(data[size:size+end], &ev) != nil || ev.Type != "point" ||
			ev.Seq != n || ev.Point < 0 || ev.Point >= points || j.seen[ev.Point] {
			break
		}
		j.seen[ev.Point] = true
		n++
		size += end + 1
	}
	j.info.Committed = n
	if size < len(data) {
		return os.Truncate(j.eventsPath(), int64(size))
	}
	return nil
}

// writeJSONAtomic marshals v and atomically replaces path (temp file +
// rename, as the first flush of core's checkpoint writer does).
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
