package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tocttou/internal/campaignd"
	"tocttou/internal/core"
	"tocttou/internal/scenario"
	"tocttou/internal/stats"
)

// runConfig is one run of one workload.
type runConfig struct {
	w        *workload
	seed     int64
	duration time.Duration
	trace    bool
	// dir holds the run's server data, probe files and spans.
	dir string
	sc  scale
}

// result is what one workload run reports.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	OutputDigest string            `json:"output_digest"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	// Loop holds the loopMetrics; traced runs report them as per-layer.
	Loop     map[string]metric `json:"loop"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// SelfS is each span name's total self time in a traced run.
	SelfS map[string]float64 `json:"self_s,omitempty"`
	// Dists summarizes the timing samples behind the metrics.
	Dists  map[string]string `json:"distributions"`
	Notes  []string          `json:"notes,omitempty"`
	Errors []string          `json:"errors,omitempty"`
}

// metrics are the run's reported metrics: per-layer when traced,
// end-to-end otherwise.
func (res *result) metrics() map[string]metric {
	if res.Trace {
		return res.PerLayer
	}
	return res.EndToEnd
}

// campaignRec is one closed-loop operation: a fresh campaign or a
// cache-hit resubmission.
type campaignRec struct {
	idx    int
	ok     bool
	report []byte
	dur    time.Duration
	points int
	rounds int
	// order is the point commit order the event stream delivered.
	order []int
	// Client-side service timings (zero in-process).
	submit, firstPoint, fetch time.Duration
	gaps                      []float64
}

// runner is the state of one workload run.
type runner struct {
	cfg    runConfig
	tr     *tracer
	inputs []string
	srv    *server

	mu        sync.Mutex
	fresh     []*campaignRec // by input index; a dense prefix once the loop ends
	replays   []*campaignRec
	attempted int
	failed    int
	errs      []string
	notes     []string
	// rssMB samples the resident set as each of the first minCampaigns
	// fresh campaigns finishes: a fixed amount of work, however long the
	// loop then runs on.
	rssMB []float64

	svc   svcObs
	gated []*localRun
	sim   simObs
	sweep sweepObs
}

// run executes the workload: set-up, the timed closed loop, the
// correctness gate and, when tracing, the per-layer probes.
func run(cfg runConfig) (*result, error) {
	r := &runner{cfg: cfg, fresh: make([]*campaignRec, cfg.sc.maxCampaigns)}
	if err := os.MkdirAll(workerBytesDir(cfg), 0o755); err != nil {
		return nil, err
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	setup, err := r.setup()
	if err != nil {
		if r.srv != nil {
			r.srv.stop()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	wall := r.timedPhase()
	var served *campaignd.Stats
	if r.srv != nil {
		if cfg.trace && len(r.replays) == 0 {
			r.probeReplays()
		}
		served, err = r.srv.stats()
		r.srv.stop()
		if err == nil && served.MemoHits != int64(len(r.replays)) {
			err = fmt.Errorf("/v1/stats memo_hits = %d, want %d (one per resubmission)", served.MemoHits, len(r.replays))
		}
		r.check(err)
	}
	r.gate()
	res := &result{
		Workload: cfg.w.name,
		Seed:     cfg.seed,
		Seconds:  cfg.duration.Seconds(),
		Trace:    cfg.trace,
		Dists:    make(map[string]string),
	}
	res.EndToEnd = map[string]metric{
		"setup_s":    {Value: setup.Seconds(), Unit: "s", N: cfg.sc.setupReps},
		"rss_mb_p50": {Value: r.rssP50MB(), Unit: "MB", N: len(r.rssMB)},
	}
	res.Dists["rss_mb"] = describe(r.rssMB)
	res.Loop = r.loop(wall, res.Dists)
	if cfg.trace {
		res.PerLayer = r.perLayer(served, res.Dists)
		for name, m := range res.Loop {
			res.PerLayer[name] = m
		}
		res.SelfS = make(map[string]float64)
		for name, d := range selfTimes(r.tr.snapshot()) {
			res.SelfS[name] = d.Seconds()
		}
		r.check(r.tr.writeJSONL(filepath.Join(cfg.dir, cfg.w.name+".spans.jsonl")))
	}
	if n := cfg.sc.minCampaigns; r.fresh[n-1] != nil {
		reports := make([][]byte, n)
		for i := range reports {
			reports[i] = r.fresh[i].report
		}
		res.OutputDigest = outputDigest(reports)
	}
	res.Attempted, res.Failed, res.Errors, res.Notes = r.attempted, r.failed, r.errs, r.notes
	res.Correct = r.failed == 0 && res.OutputDigest != ""
	return res, nil
}

// setup generates the inputs, starts the server and runs one untimed
// warm-up campaign, setupReps times over; every repetition but the last
// is torn down again. It returns the median repetition.
func (r *runner) setup() (time.Duration, error) {
	sc := r.cfg.sc
	var reps []float64
	for rep := 0; rep < sc.setupReps; rep++ {
		t0 := time.Now()
		r.inputs = make([]string, sc.maxCampaigns+1)
		for i := range r.inputs {
			r.inputs[i] = r.cfg.w.spec(r.cfg.seed, i, sc)
		}
		if r.cfg.w.service {
			srv, err := startServer(r.cfg, filepath.Join(r.cfg.dir, fmt.Sprintf("data-%d", rep)))
			if err != nil {
				return 0, err
			}
			r.srv = srv
		}
		if _, err := r.op(r.newClient(r.srv), -1, "warmup", r.inputs[warmup(sc)], false); err != nil {
			return 0, fmt.Errorf("warm-up campaign: %w", err)
		}
		reps = append(reps, time.Since(t0).Seconds())
		if rep < sc.setupReps-1 && r.srv != nil {
			r.srv.stop()
			r.srv = nil
		}
	}
	return time.Duration(stats.Percentile(reps, 50) * float64(time.Second)), nil
}

// timedPhase runs the closed loop: each client issues its next operation
// when the previous one returns. Fresh campaigns are claimed in index
// order from one counter, so the completed ones form a dense prefix.
func (r *runner) timedPhase() time.Duration {
	w, sc := r.cfg.w, r.cfg.sc
	start := time.Now()
	deadline := start.Add(r.cfg.duration)
	var claimMu sync.Mutex
	next := 0
	claim := func() (int, bool) {
		claimMu.Lock()
		defer claimMu.Unlock()
		if next >= sc.maxCampaigns || (next >= sc.minCampaigns && time.Now().After(deadline)) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := r.newClient(r.srv)
			var mine []*campaignRec
			for j := 0; ; j++ {
				if w.replayEvery > 0 && j%w.replayEvery == w.replayEvery-1 && len(mine) > 0 && time.Now().Before(deadline) {
					orig := mine[int(draw(r.cfg.seed, "replay", c<<24|j))%len(mine)]
					r.replay(cl, fmt.Sprintf("r%d.%d", c, j), orig)
					continue
				}
				i, ok := claim()
				if !ok {
					return
				}
				rec, err := r.op(cl, i, fmt.Sprintf("c%d", i), r.inputs[i], false)
				if err == nil && cl != nil {
					r.svc.observe(rec)
				}
				r.record(rec, err)
				if rec.ok {
					mine = append(mine, rec)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// replay resubmits a campaign the client already finished: a cache hit
// whose report must equal the original's.
func (r *runner) replay(cl *campaignd.Client, cid string, orig *campaignRec) {
	rec, err := r.op(cl, -1, cid, r.inputs[orig.idx], true)
	if err == nil && !bytes.Equal(rec.report, orig.report) {
		err = fmt.Errorf("cache-hit report of campaign %d differs from the original", orig.idx)
	}
	if err == nil {
		r.svc.observeReplay(rec)
	}
	r.record(rec, err)
}

// record files a finished operation: fresh campaigns by index, cache
// hits in order.
func (r *runner) record(rec *campaignRec, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.ok = err == nil
	if rec.idx >= 0 {
		r.fresh[rec.idx] = rec
	} else {
		r.replays = append(r.replays, rec)
	}
	r.attempted++
	if err != nil {
		r.failLocked(err)
	}
	if rec.idx >= 0 && len(r.rssMB) < r.cfg.sc.minCampaigns {
		mb, err := residentMB()
		if err != nil {
			r.attempted++
			r.failLocked(err)
		}
		r.rssMB = append(r.rssMB, mb)
	}
}

// check counts a failed check or probe outside the timed operations as
// one more failed operation.
func (r *runner) check(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failLocked(err)
}

// reject marks an operation that completed as failed after all.
func (r *runner) reject(rec *campaignRec, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.ok {
		rec.ok = false
		r.failLocked(err)
	}
}

func (r *runner) failLocked(err error) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
}

// okFresh returns the completed fresh campaigns that passed every check,
// in index order.
func (r *runner) okFresh() []*campaignRec {
	var out []*campaignRec
	for _, rec := range r.fresh {
		if rec == nil {
			break
		}
		if rec.ok {
			out = append(out, rec)
		}
	}
	return out
}

// op runs one campaign end to end the way the workload's user does:
// submit → watch → report through cl, or in-process Parse → Run →
// Render when cl is nil.
func (r *runner) op(cl *campaignd.Client, idx int, cid, spec string, replay bool) (*campaignRec, error) {
	rec := &campaignRec{idx: idx}
	root := r.tr.begin(0, "campaign", cid)
	defer r.tr.end(root)
	if cl != nil {
		return rec, r.serviceOp(cl, rec, root, cid, spec, replay)
	}
	return rec, r.inProcessOp(rec, root, cid, spec)
}

func (r *runner) inProcessOp(rec *campaignRec, root int64, cid, text string) error {
	t0 := time.Now()
	id := r.tr.begin(root, "scenario.Parse", cid)
	spec, err := scenario.Parse([]byte(text), false)
	r.tr.end(id)
	if err != nil {
		return err
	}
	id = r.tr.begin(root, "scenario.Run", cid)
	out, err := scenario.Run(spec, scenario.RunOptions{})
	r.tr.end(id)
	if err != nil {
		return err
	}
	id = r.tr.begin(root, "Outcome.Render", cid)
	var buf bytes.Buffer
	err = out.Render(&buf)
	r.tr.end(id)
	rec.dur = time.Since(t0)
	if err != nil {
		return err
	}
	rec.report = buf.Bytes()
	rec.points = len(out.Results)
	for _, res := range out.Results {
		rec.rounds += res.Rounds
	}
	return out.CheckAssertions()
}

// watchTimeout bounds one campaign's event stream; the longest campaign
// of any workload takes well under a second.
const watchTimeout = 2 * time.Minute

func (r *runner) serviceOp(cl *campaignd.Client, rec *campaignRec, root int64, cid, spec string, replay bool) error {
	t0 := time.Now()
	id := r.tr.begin(root, "campaignd.Submit", cid)
	info, err := cl.Submit("campaign.yaml", []byte(spec))
	rec.submit = time.Since(t0)
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("submit %s: %w", cid, err)
	}
	if info.Cached != replay {
		return fmt.Errorf("submit %s: cached = %v, want %v", cid, info.Cached, replay)
	}
	var last time.Time
	ctx, cancel := context.WithTimeout(context.Background(), watchTimeout)
	defer cancel()
	id = r.tr.begin(root, "campaignd.Watch", cid)
	end, err := cl.Watch(ctx, info.ID, func(ev campaignd.PointEvent) {
		now := time.Now()
		if last.IsZero() {
			rec.firstPoint = now.Sub(t0)
		} else {
			rec.gaps = append(rec.gaps, ms(now.Sub(last)))
		}
		last = now
		rec.order = append(rec.order, ev.Point)
		rec.rounds += ev.Rounds
	})
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("watch %s: %w", cid, err)
	}
	if end.State != campaignd.StateDone || end.Error != "" || end.AssertionFailure != "" {
		return fmt.Errorf("campaign %s ended %s: %s%s", cid, end.State, end.Error, end.AssertionFailure)
	}
	rec.points = len(rec.order)
	if rec.points != info.Points || end.Committed != info.Points {
		return fmt.Errorf("campaign %s: %d point events, %d committed, want %d", cid, rec.points, end.Committed, info.Points)
	}
	id = r.tr.begin(root, "campaignd.Report", cid)
	t1 := time.Now()
	rec.report, err = cl.Report(info.ID)
	rec.fetch = time.Since(t1)
	rec.dur = time.Since(t0)
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("report %s: %w", cid, err)
	}
	return nil
}

// gate re-runs every gateEvery-th completed fresh campaign locally and
// requires its report to match the one the timed phase produced, byte
// for byte.
func (r *runner) gate() {
	for i := 0; i < len(r.fresh) && r.fresh[i] != nil; i += r.cfg.sc.gateEvery {
		rec := r.fresh[i]
		if !rec.ok {
			continue
		}
		lr, err := r.localRun(fmt.Sprintf("gate.c%d", i), r.inputs[i])
		if err == nil && !bytes.Equal(lr.report, rec.report) {
			err = fmt.Errorf("campaign %d: report differs from a local run of the same spec", i)
		}
		if err != nil {
			r.reject(rec, err)
			continue
		}
		if rec.order != nil {
			lr.order = rec.order
		}
		r.gated = append(r.gated, lr)
	}
}

// localRun is one campaign run in this process through the sweep engine
// with observers attached: Parse → Compile → core.RunSweepPoints →
// Render, which is scenario.Run plus the hooks.
type localRun struct {
	spec     string
	parsed   *scenario.Spec
	compiled *scenario.Compiled
	results  []core.CampaignResult
	report   []byte
	// order is the point commit order: the served stream's for service
	// workloads, the local sweep's otherwise.
	order    []int
	renderMs float64
}

func (r *runner) localRun(cid, text string) (*localRun, error) {
	root := r.tr.begin(0, "gate", cid)
	defer r.tr.end(root)
	lr := &localRun{spec: text}
	id := r.tr.begin(root, "scenario.Parse", cid)
	spec, err := scenario.Parse([]byte(text), false)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = r.tr.begin(root, "scenario.Compile", cid)
	c, err := scenario.Compile(spec)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	var orderMu sync.Mutex
	opt := core.SweepOptions{
		OnRound: r.sim.observe,
		OnPointDone: func(p int, _ core.CampaignResult) {
			orderMu.Lock()
			lr.order = append(lr.order, p)
			orderMu.Unlock()
		},
	}
	id = r.tr.begin(root, "core.RunSweepPoints", cid)
	cpu0, t0 := cpuTime(), time.Now()
	results, st, err := core.RunSweepPoints(c.Points, opt)
	r.sweep.add(st, time.Since(t0), cpuTime()-cpu0)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	out := &scenario.Outcome{Spec: spec, Compiled: c, Results: results, Stats: st}
	id = r.tr.begin(root, "Outcome.Render", cid)
	t1 := time.Now()
	var buf bytes.Buffer
	err = out.Render(&buf)
	lr.renderMs = ms(time.Since(t1))
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := out.CheckAssertions(); err != nil {
		return nil, err
	}
	lr.parsed, lr.compiled, lr.results, lr.report = spec, c, results, buf.Bytes()
	return lr, nil
}

// loop derives the loopMetrics from the timed phase's fresh campaigns.
func (r *runner) loop(wall time.Duration, dists map[string]string) map[string]metric {
	var rounds, points int
	var durs []float64
	for _, rec := range r.okFresh() {
		rounds += rec.rounds
		points += rec.points
		durs = append(durs, rec.dur.Seconds())
	}
	dists["campaign_s"] = describe(durs)
	n := len(durs)
	return map[string]metric{
		"rounds_per_s":   {Value: float64(rounds) / wall.Seconds(), Unit: "1/s"},
		"points_per_s":   {Value: float64(points) / wall.Seconds(), Unit: "1/s"},
		"campaign_s_p50": {Value: stats.Percentile(durs, 50), Unit: "s", N: n},
		"campaign_s_p90": {Value: stats.Percentile(durs, 90), Unit: "s", N: n},
	}
}

// rssP50MB is the median of the resident-set samples; with a worker
// fleet it adds the largest exited worker's peak once per concurrent
// worker. The median, not the peak: with a heap of a few MB the peak
// follows GC timing, and between runs of smp-faults it spread by 7%
// where the median spread by 1.4%.
func (r *runner) rssP50MB() float64 {
	var kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return stats.Percentile(r.rssMB, 50) + float64(int64(r.cfg.w.workers)*kids.Maxrss)/1024
}

// residentMB is this process's current resident set, from
// /proc/self/statm.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- observers -----------------------------------------------------------

// simObs sums the simulated kernel's per-round counters. OnRound calls
// for different points may be concurrent.
type simObs struct {
	rounds, dispatches, preemptions, semAcquires, semBlocks atomic.Int64
	ticks, noiseBursts, traps, virtualNs                    atomic.Int64
}

// events is the sum of the counters.
func (s *simObs) events() int64 {
	return s.dispatches.Load() + s.preemptions.Load() + s.semAcquires.Load() + s.semBlocks.Load() +
		s.ticks.Load() + s.noiseBursts.Load() + s.traps.Load()
}

func (s *simObs) observe(_, _ int, rd core.Round) {
	k := rd.Kernel
	s.rounds.Add(1)
	s.dispatches.Add(k.Dispatches)
	s.preemptions.Add(k.Preemptions)
	s.semAcquires.Add(k.SemAcquires)
	s.semBlocks.Add(k.SemBlocks)
	s.ticks.Add(k.Ticks)
	s.noiseBursts.Add(k.NoiseBursts)
	s.traps.Add(k.Traps)
	s.virtualNs.Add(int64(rd.End))
}

// sweepObs sums what RunSweepPoints reported across the gate's runs.
type sweepObs struct {
	busy, cpu                     time.Duration
	executed, committed, memoized int
}

func (s *sweepObs) add(st core.SweepStats, busy, cpu time.Duration) {
	s.busy += busy
	s.cpu += cpu
	s.executed += st.RoundsExecuted
	s.committed += st.RoundsCommitted
	s.memoized += st.PointsMemoized
}

// svcObs gathers client-side service timings of fresh campaigns and
// cache hits. streamBytes counts raw event-stream bytes when tracing.
type svcObs struct {
	mu                                     sync.Mutex
	submitMs, firstPointMs, gapMs, fetchMs []float64
	replayMs                               []float64
	events                                 int
	streamBytes                            atomic.Int64
}

func (s *svcObs) observe(rec *campaignRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitMs = append(s.submitMs, ms(rec.submit))
	s.firstPointMs = append(s.firstPointMs, ms(rec.firstPoint))
	s.gapMs = append(s.gapMs, rec.gaps...)
	s.fetchMs = append(s.fetchMs, ms(rec.fetch))
	s.events += rec.points
}

func (s *svcObs) observeReplay(rec *campaignRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replayMs = append(s.replayMs, ms(rec.dur))
	s.events += rec.points
}

// --- campaignd over loopback ---------------------------------------------

// server is an in-process campaignd listening on 127.0.0.1.
type server struct {
	srv     *campaignd.Server
	hs      *http.Server
	url     string
	dataDir string
	served  chan error
}

func startServer(cfg runConfig, dataDir string) (*server, error) {
	dc := campaignd.Config{DataDir: dataDir}
	if cfg.w.workers > 0 {
		cmd, err := workerCommand()
		if err != nil {
			return nil, err
		}
		dc.Workers = cfg.w.workers
		dc.WorkerCommand = cmd
		if cfg.trace {
			dc.WorkerEnv = []string{workerBytesEnv + "=" + workerBytesDir(cfg)}
		}
	}
	srv, err := campaignd.New(dc)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), dataDir: dataDir, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the campaigns, closes the listener, waits for the serving
// goroutine and deletes the data directory.
func (s *server) stop() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	os.RemoveAll(s.dataDir)
}

// stats reads /v1/stats.
func (s *server) stats() (*campaignd.Stats, error) {
	resp, err := http.Get(s.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New(resp.Status)
	}
	var st campaignd.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// newClient returns one closed-loop caller of srv with its own
// connection pool, or nil (in-process) when there is no server.
func (r *runner) newClient(srv *server) *campaignd.Client {
	if srv == nil {
		return nil
	}
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if r.cfg.trace {
		rt = countingTransport{base: rt, n: &r.svc.streamBytes}
	}
	return &campaignd.Client{Server: srv.url, HTTP: &http.Client{Transport: rt}}
}

// countingTransport counts the raw bytes of every event stream.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/events") {
		resp.Body = countingBody{ReadCloser: resp.Body, n: t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
