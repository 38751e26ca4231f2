package campaignd

// Package campaignd is the campaign-as-a-service sweep server: an HTTP
// service (stdlib net/http only) that accepts the scenario DSL's
// YAML/JSON specs, resumes them through core.ResumeSweep, runs their
// points on the process-wide bounded worker pool (or a supervised
// worker fleet), and streams per-point results to clients as NDJSON as
// each point commits.
//
// Correctness contract: a watched campaign's report is byte-identical to
// running the same scenario file locally, and a server killed (-9) and
// restarted resumes every in-flight campaign bit-identically from its
// job log — every point is a deterministic pure function of its spec
// and seed, which is what makes sharding and resumption safe at all.
// Idempotency rides the same determinism: jobs are keyed by the sweep
// fingerprint of their compiled points — the hash of every point's key,
// programs included — plus the rendering-shaping spec fields, so an
// identical re-submission is a cache hit served from the completed
// store, never a re-simulation.
//
// API:
//
//	POST /v1/campaigns?filename=f.yaml   submit a spec (400: the exact
//	                                     file/line-accurate parse error)
//	GET  /v1/campaigns                   list jobs
//	GET  /v1/campaigns/{id}              one job's state
//	GET  /v1/campaigns/{id}/events       NDJSON stream; resumable via
//	                                     the Last-Point header (or
//	                                     ?last=N): the log suffix replays
//	GET  /v1/campaigns/{id}/report       the final rendering, once done
//	GET  /v1/healthz                     liveness + drain state
//	GET  /v1/stats                       jobs by state, points/sec, memo
//	                                     hits

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
	"tocttou/internal/workerpool"
)

// Config tunes a Server.
type Config struct {
	// DataDir is the durability root; jobs live under DataDir/jobs/<id>.
	DataDir string
	// MaxActiveJobs bounds concurrently running campaigns (each one
	// shards its points over the shared round pool); 0 selects 2.
	MaxActiveJobs int
	// Workers, when positive, executes each campaign's points in a
	// supervised fleet of worker subprocesses (internal/workerpool)
	// launched via WorkerCommand instead of in-process — one panicking
	// or runaway point can then kill only its worker, never the daemon
	// or the other campaigns. MaxActiveJobs still bounds concurrent
	// campaigns; each running campaign gets its own fleet.
	Workers int
	// WorkerCommand is the argv launching one worker (typically the
	// daemon's own binary with -worker); required when Workers > 0.
	WorkerCommand []string
	// WorkerEnv is extra environment for workers (e.g. a TOCTTOU_CHAOS
	// schedule in soaks).
	WorkerEnv []string
	// HeartbeatInterval, LeaseTimeout, and MaxPointRetries tune fleet
	// supervision; zero values select workerpool's defaults (100ms,
	// 10s, 3).
	HeartbeatInterval time.Duration
	LeaseTimeout      time.Duration
	MaxPointRetries   int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Server is the campaign service. Create with New, serve with Handler,
// stop with Drain.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	started   time.Time
	interrupt chan struct{} // closed by Drain; wired into every sweep

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order (persisted order restored by SubmittedAt)
	draining bool

	memoHits        atomic.Int64 // submits served from the completed store
	pointsCommitted atomic.Int64

	// Fleet supervision counters, aggregated across campaigns (zero
	// when Workers == 0).
	workerRestarts atomic.Int64
	leasesRequeued atomic.Int64
	pointsDeduped  atomic.Int64

	slots chan struct{}  // MaxActiveJobs tokens
	wg    sync.WaitGroup // running job goroutines
}

// New builds a server over DataDir, restoring every stored job: finished
// jobs load into the completed store, unfinished ones resume from their
// job logs immediately.
func New(cfg Config) (*Server, error) {
	if cfg.MaxActiveJobs <= 0 {
		cfg.MaxActiveJobs = 2
	}
	if cfg.Workers > 0 && len(cfg.WorkerCommand) == 0 {
		return nil, fmt.Errorf("campaignd: Workers > 0 requires a WorkerCommand")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("campaignd: %w", err)
	}
	s := &Server{
		cfg:       cfg,
		started:   time.Now(),
		interrupt: make(chan struct{}),
		jobs:      make(map[string]*job),
		slots:     make(chan struct{}, cfg.MaxActiveJobs),
	}
	if err := s.restore(); err != nil {
		return nil, err
	}
	s.routes()
	return s, nil
}

// restore loads every job directory and schedules the unfinished ones.
func (s *Server) restore() error {
	root := filepath.Join(s.cfg.DataDir, "jobs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("campaignd: %w", err)
	}
	var loaded []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		j, err := loadJob(filepath.Join(root, e.Name()))
		if err != nil {
			s.cfg.Logf("campaignd: skipping job dir %s: %v", e.Name(), err)
			continue
		}
		loaded = append(loaded, j)
	}
	sort.Slice(loaded, func(a, b int) bool {
		if loaded[a].info.SubmittedAt != loaded[b].info.SubmittedAt {
			return loaded[a].info.SubmittedAt < loaded[b].info.SubmittedAt
		}
		return loaded[a].id < loaded[b].id
	})
	for _, j := range loaded {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if !terminalState(j.info.State) || j.info.State == StateInterrupted {
			s.cfg.Logf("campaignd: resuming job %s (%s, state %s, %d/%d points)",
				j.id, j.info.Name, j.info.State, j.info.Committed, j.info.Points)
			s.schedule(j)
		}
	}
	return nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully stops the server: new submissions are refused with
// 503, every running sweep stops claiming rounds, in-flight rounds
// finish committing to their job logs, and Drain returns once every
// job goroutine has exited. Jobs stopped mid-campaign persist as
// "interrupted" and resume on the next start.
func (s *Server) Drain() {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		close(s.interrupt)
	}
	s.wg.Wait()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
}

// maxSpecBytes bounds a submission body; scenario files are small.
const maxSpecBytes = 4 << 20

// jobKey derives a job's identity: core's sweep fingerprint (the hash of
// every compiled point's key, core.PointKey) extended
// with the spec fields that shape rendering and verdicts but not
// simulation (name, report style, labels, assertions). Two submissions
// with equal keys produce byte-identical reports, so the key is safe to
// serve cache hits from.
func jobKey(spec *scenario.Spec, c *scenario.Compiled) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "fp=%016x name=%s report=%s|", core.SweepFingerprint(c.Points, core.AdaptiveStop{}), spec.Name, spec.Report)
	for _, m := range c.Meta {
		fmt.Fprintf(h, "m=%+v|", m)
	}
	for _, a := range spec.Assertions {
		fmt.Fprintf(h, "a=%s,%d,%s,%v,%v,%v,%v|", a.Metric, a.Point, a.Template, a.Min, a.HasMin, a.Max, a.HasMax)
	}
	if spec.Fleet != nil {
		fmt.Fprintf(h, "fleet=%d,%d|", spec.Fleet.Total, spec.Fleet.JitterSeed)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return
	}
	if len(body) > maxSpecBytes {
		http.Error(w, fmt.Sprintf("spec exceeds %d bytes", maxSpecBytes), http.StatusRequestEntityTooLarge)
		return
	}
	filename := filepath.Base(r.URL.Query().Get("filename"))
	if filename == "." || filename == "/" || filename == "" {
		filename = "scenario.yaml"
	}
	// The decode path is scenario.LoadBytes, the exact seam the CLI's
	// -scenario flag loads through: a malformed spec's 400 body is the
	// identical file/line-accurate message a local run prints.
	spec, err := scenario.LoadBytes(filename, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		http.Error(w, fmt.Sprintf("scenario %s: %v", filename, err), http.StatusBadRequest)
		return
	}
	id := jobKey(spec, compiled)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "draining: not accepting new campaigns", http.StatusServiceUnavailable)
		return
	}
	if existing, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		info := existing.snapshot()
		if info.State == StateDone || info.State == StateFailed {
			// The completed store's memo hit: identical work, zero rounds.
			info.Cached = true
			s.memoHits.Add(1)
		}
		writeJSON(w, http.StatusOK, info)
		return
	}
	// Register before unlocking so a concurrent identical submit joins
	// this job instead of racing to create it.
	dir := filepath.Join(s.cfg.DataDir, "jobs", id)
	j := newJob(id, dir, spec, compiled, filename, time.Now().UTC().Format(time.RFC3339Nano))
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := os.MkdirAll(dir, 0o755); err == nil {
		err = os.WriteFile(j.specPath(), body, 0o644)
	}
	if err == nil {
		err = writeJSONAtomic(j.statePath(), j.info)
	}
	if err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("persisting job: %v", err), http.StatusInternalServerError)
		return
	}
	s.cfg.Logf("campaignd: job %s submitted (%s, %d points)", id, spec.Name, len(compiled.Points))
	s.schedule(j)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// schedule launches a job's runner goroutine.
func (s *Server) schedule(j *job) {
	s.wg.Add(1)
	go s.runJob(j)
}

// runJob drives one campaign: acquire an active slot, resume the job
// from its log, run the pending points — in-process, or over the worker
// fleet when Workers > 0 — with the server's interrupt wired in, then
// settle the terminal state (done + report, failed, or interrupted for
// resume). The executor is the only difference between the two modes.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-s.interrupt:
		s.settle(j, func(info *JobInfo) { info.State = StateInterrupted })
		return
	}
	select {
	case <-s.interrupt:
		// Drain began while the slot was granted; do not start new work.
		s.settle(j, func(info *JobInfo) { info.State = StateInterrupted })
		return
	default:
	}
	log, err := j.loadLog()
	if err != nil {
		s.settle(j, func(info *JobInfo) {
			info.State = StateFailed
			info.Error = fmt.Sprintf("event log: %v", err)
		})
		return
	}
	// A restart resumes queued, running and interrupted jobs alike, so
	// the move to running is not persisted: state.json is rewritten only
	// where a restart would act differently.
	j.mu.Lock()
	j.info.State = StateRunning
	j.bump()
	j.mu.Unlock()

	results := make([]core.CampaignResult, len(j.compiled.Points))
	// onBatch sees every point exactly once, after the resume step or
	// the committer has made it durable in the job log: restored from the
	// log, or appended to it (one write, one fsync per batch).
	// commitPoints then publishes the log's synced lines to watchers.
	onBatch := func(batch []core.PointResult) error {
		for _, pr := range batch {
			results[pr.Point] = pr.Result
		}
		n, err := j.commitPoints(log.lines)
		s.pointsCommitted.Add(int64(n))
		return err
	}
	var quarantined []workerpool.Quarantine
	rs, err := core.ResumeSweep(log, j.compiled.Points, onBatch)
	log.restored = nil // settled into results; nothing reads the map again
	if err == nil {
		if s.cfg.Workers > 0 {
			quarantined, err = s.runFleet(j, rs)
		} else {
			_, err = rs.RunPending(core.SweepOptions{Interrupt: s.interrupt})
		}
		// Settle only once every point the executor finished is durable
		// and published: an interrupted job's log then holds all of them.
		// A commit failure outranks the executor's outcome.
		if derr := rs.Drain(); derr != nil {
			err = derr
		}
	}
	switch {
	case errors.Is(err, core.ErrSweepInterrupted) || errors.Is(err, workerpool.ErrInterrupted):
		info := j.snapshot()
		s.cfg.Logf("campaignd: job %s interrupted for drain (%d/%d points committed)", j.id, info.Committed, info.Points)
		s.settle(j, func(info *JobInfo) { info.State = StateInterrupted })
	case err != nil:
		s.cfg.Logf("campaignd: job %s failed: %v", j.id, err)
		s.settle(j, func(info *JobInfo) {
			info.State = StateFailed
			info.Error = err.Error()
			info.Watchdog = strings.Contains(err.Error(), "core: watchdog:")
		})
	default:
		s.finishDone(j, results, quarantined)
	}
}

// finishDone renders the completed campaign's report — the bytes a local
// `tocttou -scenario` golden snapshot would hold — persists it, and
// evaluates the spec's assertions. Quarantined points (fleet mode only)
// are appended after the rendering so an unchaosed report stays
// byte-identical to the local golden.
func (s *Server) finishDone(j *job, results []core.CampaignResult, quarantined []workerpool.Quarantine) {
	out := &scenario.Outcome{Spec: j.spec, Compiled: j.compiled, Results: results}
	var buf strings.Builder
	if err := out.Render(&buf); err != nil {
		s.settle(j, func(info *JobInfo) {
			info.State = StateFailed
			info.Error = fmt.Sprintf("rendering report: %v", err)
		})
		return
	}
	report := []byte(buf.String())
	if len(quarantined) > 0 {
		report = append(report, renderQuarantine(j, quarantined)...)
	}
	if err := writeFileAtomic(j.reportPath(), report); err != nil {
		s.settle(j, func(info *JobInfo) {
			info.State = StateFailed
			info.Error = fmt.Sprintf("persisting report: %v", err)
		})
		return
	}
	assertion := ""
	if aerr := out.CheckAssertions(); aerr != nil {
		assertion = aerr.Error()
	}
	s.settle(j, func(info *JobInfo) {
		info.State = StateDone
		info.AssertionFailure = assertion
		info.Quarantined = nil
		for _, q := range quarantined {
			info.Quarantined = append(info.Quarantined, q.Point)
		}
	})
	s.cfg.Logf("campaignd: job %s done (%d points, %d quarantined)", j.id, len(results), len(quarantined))
}

// renderQuarantine is the report appendix describing poison points: the
// campaign completed around them, but they have no committed result and
// the grid rows render zeros.
func renderQuarantine(j *job, qs []workerpool.Quarantine) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "\nquarantined points: %d of %d (no committed result; each killed workers until set aside)\n", len(qs), len(j.compiled.Points))
	for _, q := range qs {
		fmt.Fprintf(&b, "  point %d (%s): blamed for %d worker kills\n", q.Point, j.compiled.Meta[q.Point].Label, q.Kills)
	}
	return []byte(b.String())
}

// settle applies a terminal transition and logs a persistence failure
// instead of surfacing it (the in-memory state still serves clients).
func (s *Server) settle(j *job, mutate func(*JobInfo)) {
	if err := j.setState(mutate); err != nil {
		s.cfg.Logf("campaignd: job %s: persisting state: %v", j.id, err)
	}
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	infos := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		infos[i] = j.snapshot()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": infos})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleEvents streams the job's point-event log as NDJSON from the
// client's offset, then follows live commits until the job reaches a
// terminal state, which is sent as the final "end" line. The offset is
// the number of events the client already holds (Last-Point header or
// ?last=N); replaying from it can neither duplicate nor drop events
// because the log is append-only and fsynced before broadcast. Lines are
// read from events.ndjson itself, never past info.Committed: a line
// beyond it may be an append still in flight. Each is sent without its
// last member, the point's result (copyEvents).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	offset := 0
	raw := r.Header.Get("Last-Point")
	if raw == "" {
		raw = r.URL.Query().Get("last")
	}
	if raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad Last-Point %q: want a non-negative event count", raw), http.StatusBadRequest)
			return
		}
		offset = n
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	var events *bufio.Reader // the event log, positioned at line offset
	for {
		j.mu.Lock()
		committed := j.info.Committed
		var end json.RawMessage
		if terminalState(j.info.State) {
			end = j.endEventLocked()
		}
		ch := j.update
		j.mu.Unlock()

		if offset < committed {
			if events == nil {
				f, err := os.Open(j.eventsPath())
				if err == nil {
					defer f.Close()
					events = bufio.NewReader(f)
					err = copyEvents(nil, events, offset)
				}
				if err != nil {
					s.cfg.Logf("campaignd: job %s: streaming events: %v", j.id, err)
					return
				}
			}
			if err := copyEvents(w, events, committed-offset); err != nil {
				if err != errClientGone {
					s.cfg.Logf("campaignd: job %s: streaming events: %v", j.id, err)
				}
				return
			}
			offset = committed
		}
		if end != nil {
			fmt.Fprintf(w, "%s\n", end)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// errClientGone reports a failed write to a stream's client.
var errClientGone = errors.New("stream client gone")

// copyEvents copies the next n job-log lines from r to w as stream
// lines: each cut before its first resultMember, which leaves the point
// event's own encoding. A line without one (a layout-1 log of a
// finished job) is copied whole. A line cut short by the end of the file
// is an error, never copied. With w nil the lines are skipped unread.
func copyEvents(w io.Writer, r *bufio.Reader, n int) error {
	var line []byte // reused by every line
	for ; n > 0; n-- {
		line = line[:0]
		for {
			chunk, err := r.ReadSlice('\n')
			if w != nil {
				line = append(line, chunk...)
			}
			if err == nil {
				break
			}
			if err != bufio.ErrBufferFull {
				return err
			}
		}
		if w == nil {
			continue
		}
		if i := bytes.Index(line, resultMember); i >= 0 {
			line = append(line[:i], '}', '\n')
		}
		if _, err := w.Write(line); err != nil {
			return errClientGone
		}
	}
	return nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	info := j.snapshot()
	switch info.State {
	case StateDone:
		report, err := os.ReadFile(j.reportPath())
		if err != nil {
			http.Error(w, fmt.Sprintf("reading report: %v", err), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(report)
	case StateFailed:
		http.Error(w, fmt.Sprintf("campaign failed: %s", info.Error), http.StatusConflict)
	default:
		http.Error(w, fmt.Sprintf("campaign is %s; no report yet", info.State), http.StatusConflict)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status})
}

// Stats is the /v1/stats payload.
type Stats struct {
	Jobs            map[string]int `json:"jobs"`
	PointsCommitted int64          `json:"points_committed"`
	PointsPerSec    float64        `json:"points_per_sec"`
	MemoHits        int64          `json:"memo_hits"`
	// Fleet supervision counters (always present; zero in-process).
	// WorkerRestarts counts worker replacements after crashes/stalls;
	// LeasesRequeued counts leases a worker death sent back to the
	// queue; PointsDeduped counts committed points a dead worker's lease
	// would have double-counted (the exactly-once seam); PointsQuarantined
	// counts poison points set aside across all jobs.
	WorkerRestarts    int64   `json:"worker_restarts"`
	LeasesRequeued    int64   `json:"leases_requeued"`
	PointsDeduped     int64   `json:"points_deduped"`
	PointsQuarantined int     `json:"points_quarantined"`
	Draining          bool    `json:"draining"`
	UptimeSec         float64 `json:"uptime_sec"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := Stats{Jobs: make(map[string]int), Draining: s.draining}
	for _, j := range s.jobs {
		info := j.snapshot()
		st.Jobs[info.State]++
		st.PointsQuarantined += len(info.Quarantined)
	}
	s.mu.Unlock()
	st.PointsCommitted = s.pointsCommitted.Load()
	st.MemoHits = s.memoHits.Load()
	st.WorkerRestarts = s.workerRestarts.Load()
	st.LeasesRequeued = s.leasesRequeued.Load()
	st.PointsDeduped = s.pointsDeduped.Load()
	st.UptimeSec = time.Since(s.started).Seconds()
	if st.UptimeSec > 0 {
		st.PointsPerSec = float64(st.PointsCommitted) / st.UptimeSec
	}
	writeJSON(w, http.StatusOK, st)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, `{"error":"encoding response"}`)
		return
	}
	w.Write(append(data, '\n'))
}
