package campaignd

// Job state and durability. A job is one submitted scenario campaign,
// backed by a directory under <data>/jobs/<id>:
//
//	spec            the submitted scenario bytes, verbatim
//	state.json      the job's metadata and state (atomic replace)
//	events.ndjson   the job log: one line per committed point, fsynced
//	                before any watcher sees it — the point event a
//	                stream sends, with the point's full result as its
//	                last member
//	report.txt      the final rendering, written once on completion
//
// The files are the only copy: streams read events.ndjson and report
// requests read report.txt, so memory holds only the work in progress.
// Everything a restarted server needs is in that directory: a finished
// job restores from state.json alone; an unfinished one re-parses and
// re-compiles its spec deterministically and restores its completed
// points bit-identically from the log, whose lines are also the stream
// offsets watchers hold — a client reconnecting across a kill -9 with
// `Last-Point: k` receives exactly the events it has not seen, because
// a line is appended and fsynced before it is broadcast. Lines are in
// point order, so the log does not depend on executor or restarts.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"tocttou/internal/core"
	"tocttou/internal/linelog"
	"tocttou/internal/scenario"
)

// Job states. queued and running jobs resume after a restart; done,
// failed, and asserted states are terminal. interrupted marks a job the
// draining server stopped at a point boundary — a restart resumes it
// from its log.
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
	// the log, for points 0 to Committed-1 if none was quarantined.
	Points    int `json:"points"`
	Committed int `json:"committed"`
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
	Error            string `json:"error,omitempty"`
	Watchdog         bool   `json:"watchdog,omitempty"`
	AssertionFailure string `json:"assertion_failure,omitempty"`
	Quarantined      []int  `json:"quarantined,omitempty"`
}

// job is the server-side state of one campaign. spec and compiled serve
// only a job that can still run; a terminal transition releases them,
// and a finished job holds its info alone — its events and report are
// read from its directory. info.Committed counts the complete lines of
// events.ndjson that streams may read.
type job struct {
	id  string
	dir string

	mu       sync.Mutex
	info     JobInfo
	spec     *scenario.Spec
	compiled *scenario.Compiled
	update   chan struct{} // closed and replaced on every change
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
		update:   make(chan struct{}),
	}
}

func (j *job) specPath() string   { return filepath.Join(j.dir, "spec") }
func (j *job) statePath() string  { return filepath.Join(j.dir, "state.json") }
func (j *job) eventsPath() string { return filepath.Join(j.dir, "events.ndjson") }
func (j *job) reportPath() string { return filepath.Join(j.dir, "report.txt") }

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

// releaseLocked drops what only a runnable job needs: its spec and its
// compiled grid. Caller holds j.mu.
func (j *job) releaseLocked() {
	j.spec, j.compiled = nil, nil
}

// endEventLocked builds the stream-terminating event for a terminal
// state. Caller holds j.mu.
func (j *job) endEventLocked() json.RawMessage {
	ev := EndEvent{
		Type:             "end",
		State:            j.info.State,
		Points:           j.info.Points,
		Committed:        j.info.Committed,
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

// commitPoints publishes the job log's first lines: Committed grows to
// lines and streams wake. The job's committer calls it only once those
// lines are synced, so a stream never reads a line a crash could take
// back. It returns how many lines are new.
func (j *job) commitPoints(lines int) (appended int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalState(j.info.State) {
		return 0, fmt.Errorf("job %s is %s: %d points cannot commit", j.id, j.info.State, lines-j.info.Committed)
	}
	appended = lines - j.info.Committed
	j.info.Committed = lines
	j.bump()
	return appended, nil
}

// logLine is one line of a job log: the point event, then the point's
// result as the last member. A stream sends the line cut at resultMember,
// which is the event's own encoding: the label is an escaped JSON
// string, so the first raw resultMember is the member separator.
type logLine struct {
	PointEvent
	Result *core.CampaignResult `json:"result"`
}

var resultMember = []byte(`,"result":`)

// errLayout1 fails a resumable job whose directory is in layout 1,
// before the one-log layout: its results sit in a checkpoint.json
// beside a log of bare point events.
var errLayout1 = errors.New("job layout 1 (checkpoint.json beside a result-less events.ndjson) predates the one-log layout 2; delete the job directory to start over")

// errOtherSweep fails a resumable job whose stored spec compiles, on this
// build, to a different sweep than the one its id and log were made for.
var errOtherSweep = errors.New("job log written for a different sweep configuration (its id no longer matches the compiled points); delete the job directory to start over")

// jobLog is a job's events.ndjson as core's store for the job's sweep:
// a codec over a linelog.Log that checks the log's lines when the job
// loads and encodes each batch once, for one write and one fsync.
type jobLog struct {
	labels   []scenario.PointMeta
	restored []core.CampaignResult
	lines    int // complete lines in the file
	log      *linelog.Log
	buf      bytes.Buffer
}

func (l *jobLog) Restored() []core.CampaignResult { return l.restored }

func (l *jobLog) Append(batch []core.PointResult) error {
	l.buf.Reset()
	enc := json.NewEncoder(&l.buf)
	for i, pr := range batch {
		if err := enc.Encode(logLine{l.event(l.lines+i, pr.Point, &pr.Result), &pr.Result}); err != nil {
			return err
		}
	}
	if err := l.log.Append(l.buf.Bytes()); err != nil {
		return fmt.Errorf("event log: %w", err)
	}
	l.lines += len(batch)
	return nil
}

func (l *jobLog) Close() error { return l.log.Close() }

// check is the job log's line check (linelog.Open). A line joins the
// log only if it is complete, with a result and the very event Append
// writes for that result as line k, point k's: seq, label and counts
// must all agree. (An older build's out-of-order tail re-runs.) A first
// line without a result is layout 1 (errLayout1); a later one is
// corruption like any other.
func (l *jobLog) check(data []byte) (bool, error) {
	var line logLine
	if data[len(data)-1] != '\n' || json.Unmarshal(data, &line) != nil {
		return false, nil
	}
	if l.lines == 0 && line.Type == "point" && line.Result == nil {
		return false, errLayout1
	}
	if line.Result == nil || l.lines >= len(l.labels) || line.PointEvent != l.event(l.lines, l.lines, line.Result) {
		return false, nil
	}
	l.restored = append(l.restored, *line.Result)
	l.lines++
	return true, nil
}

// event is the point event of point's line at position seq.
func (l *jobLog) event(seq, point int, res *core.CampaignResult) PointEvent {
	return PointEvent{
		Type:         "point",
		Seq:          seq,
		Point:        point,
		Label:        l.labels[point].Label,
		Rounds:       res.Rounds,
		Successes:    res.Successes,
		Rate:         res.Rate(),
		VictimErrors: res.VictimErrors,
		AttackErrors: res.AttackErrors,
	}
}

// loadJob restores a job from its directory. A done job whose report
// exists, and a failed job, are their files: state.json restores the
// info, and nothing is parsed, compiled or replayed. Any other job is
// made ready to resume: its spec re-parses and re-compiles — both are
// deterministic — and its log is validated (loadLog). A spec that no
// longer loads (a hand-edited directory), one that compiles to another
// sweep than its id names (errOtherSweep), a directory in layout 1
// (errLayout1) and a state.json naming a state this build does not know
// surface as failed jobs rather than a crashed server or a job scheduled
// under a state no client understands.
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
		// log (every point restores; only the rendering redoes).
		j.info.State = StateInterrupted
	case StateQueued, StateRunning, StateInterrupted:
	default:
		return j, j.failLoad(fmt.Errorf("state.json names unknown job state %q", info.State))
	}
	specData, err := os.ReadFile(j.specPath())
	if err != nil {
		return nil, err
	}
	spec, err := scenario.LoadBytes(info.Filename, specData)
	if err == nil {
		j.spec = spec
		j.compiled, err = scenario.Compile(spec)
	}
	switch {
	case err != nil:
		err = fmt.Errorf("stored spec no longer loads: %v", err)
	case jobKey(spec, j.compiled) != info.ID:
		// The id hashes every compiled point's key: a build whose point
		// identity differs must not merge this log's results into its
		// own, as a checkpoint's fingerprint refuses a different sweep.
		err = errOtherSweep
	default:
		// Validate and truncate the log now, so streams see its committed
		// lines; the results are decoded again when the job runs, and a
		// queued job holds none of them.
		if _, err = j.loadLog(); err != nil && !errors.Is(err, errLayout1) {
			return nil, err
		}
	}
	if err != nil {
		return j, j.failLoad(err)
	}
	return j, nil
}

// failLoad fails a job loadJob cannot resume and persists the failure.
func (j *job) failLoad(err error) error {
	j.info.State = StateFailed
	j.info.Error = err.Error()
	j.releaseLocked() // not yet shared: no lock needed
	return writeJSONAtomic(j.statePath(), j.info)
}

// loadLog opens a resumable job's events.ndjson, restoring points 0 to
// k-1 from the log's leading run of valid lines (jobLog.check) and
// truncating anything after that run — a torn final line from a kill -9
// between write and fsync, or a line corrupted on disk — so the resumed
// run's first append starts on a line boundary; points cut off re-run.
// A directory in layout 1 — a checkpoint.json, or a first line without
// a result — fails with errLayout1 and is left as it is.
func (j *job) loadLog() (*jobLog, error) {
	if _, err := os.Stat(filepath.Join(j.dir, "checkpoint.json")); err == nil {
		return nil, errLayout1
	}
	l := &jobLog{labels: j.compiled.Meta}
	var err error
	if l.log, err = linelog.Open(j.eventsPath(), l.check); err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.info.Committed = l.lines
	j.mu.Unlock()
	return l, nil
}

// writeJSONAtomic marshals v and atomically replaces path (temp file +
// rename).
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
