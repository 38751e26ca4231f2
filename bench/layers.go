package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tocttou/internal/campaignd"
	"tocttou/internal/core"
	"tocttou/internal/fs"
	"tocttou/internal/scenario"
	"tocttou/internal/sim"
	"tocttou/internal/stats"
	"tocttou/internal/workerpool"
)

// perLayer measures every layer from outside, by timing calls into its
// public functions, on this workload's own inputs. Layers the timed loop
// does not reach (the service for in-process workloads, the worker fleet
// for most) are driven by small probes over the same campaigns.
func (r *runner) perLayer(served *campaignd.Stats, dists map[string]string) map[string]metric {
	m := make(map[string]metric)
	units := make(map[string]string)
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	put := func(name string, v float64, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(fmt.Errorf("per-layer metric %s has no value (%v)", name, v))
			v = 0
		}
		m[name] = metric{Value: v, Unit: units[name], N: n}
	}
	p50 := func(name string, xs []float64) {
		if len(xs) == 0 {
			r.check(fmt.Errorf("per-layer metric %s has no samples", name))
		}
		put(name, stats.Percentile(xs, 50), len(xs))
		dists[name] = describe(xs)
	}

	// scenario: Parse and Compile of every completed fresh spec, Render
	// of every gated campaign.
	var parseMs, compileMs, renderMs []float64
	for _, rec := range r.okFresh() {
		cid := fmt.Sprintf("c%d", rec.idx)
		var spec *scenario.Spec
		d, err := r.timed(cid, "scenario.Parse", func() (err error) {
			spec, err = scenario.Parse([]byte(r.inputs[rec.idx]), false)
			return err
		})
		r.check(err)
		parseMs = append(parseMs, ms(d))
		if err == nil {
			d, err = r.timed(cid, "scenario.Compile", func() error { _, err := scenario.Compile(spec); return err })
			r.check(err)
			compileMs = append(compileMs, ms(d))
		}
	}
	for _, g := range r.gated {
		renderMs = append(renderMs, g.renderMs)
	}
	p50("scenario.parse_ms_p50", parseMs)
	p50("scenario.compile_ms_p50", compileMs)
	p50("scenario.render_ms_p50", renderMs)

	// core sweep, over the gate's local runs.
	sw := r.sweep
	put("sweep.busy_s", sw.busy.Seconds(), 0)
	put("sweep.rounds_executed", float64(sw.executed), 0)
	put("sweep.rounds_committed", float64(sw.committed), 0)
	put("sweep.points_memoized", float64(sw.memoized), 0)
	put("sweep.useful_ratio", float64(sw.committed)/float64(sw.executed), 0)
	put("sweep.idle_frac", 1-sw.cpu.Seconds()/(sw.busy.Seconds()*float64(runtime.GOMAXPROCS(0))), 0)

	// sim, exact counters of every gated round.
	s := &r.sim
	n := float64(s.rounds.Load())
	counts := []struct {
		name string
		v    int64
	}{
		{"sim.dispatches_per_round", s.dispatches.Load()},
		{"sim.preemptions_per_round", s.preemptions.Load()},
		{"sim.sem_acquires_per_round", s.semAcquires.Load()},
		{"sim.sem_blocks_per_round", s.semBlocks.Load()},
		{"sim.ticks_per_round", s.ticks.Load()},
		{"sim.noise_bursts_per_round", s.noiseBursts.Load()},
		{"sim.traps_per_round", s.traps.Load()},
	}
	for _, c := range counts {
		put(c.name, float64(c.v)/n, int(n))
	}
	put("sim.events_per_round", float64(s.events())/n, int(n))
	put("sim.virtual_us_per_round", float64(s.virtualNs.Load())/n/1e3, int(n))

	// core round and fs, on the probe's point classes at GOMAXPROCS=1.
	rp, err := r.probeRounds()
	r.check(err)
	nsPerOp, err := r.probeFS()
	r.check(err)
	if rp != nil && nsPerOp != nil {
		put("round.forked_us", rp.forkedUs, rp.classes)
		put("round.stepped_us", rp.steppedUs, rp.classes)
		put("round.classic_us", rp.classicUs, rp.classes)
		put("round.allocs", rp.allocs, rp.classes)
		put("round.bytes", rp.bytes, rp.classes)
		put("sim.host_ns_per_event", rp.forkedUs*1e3/rp.events, rp.classes)
		var fsNs float64
		for _, op := range fsOps {
			put("fs.ops_per_round."+op.label, rp.ops[op.label], rp.classes)
			put("fs.ns_per_op."+op.cost, nsPerOp[op.cost], r.cfg.sc.fsOps)
			fsNs += rp.ops[op.label] * nsPerOp[op.cost]
		}
		put("fs.share_of_round", fsNs/(rp.forkedUs*1e3), rp.classes)
	}

	// core checkpoint: the gated campaigns' results replayed in commit
	// order into a fresh checkpoint.
	flushMs, flushBytes, perCampaign := r.probeCheckpoint()
	p50("checkpoint.flush_ms_p50", flushMs)
	put("checkpoint.flush_ms_p90", stats.Percentile(flushMs, 90), len(flushMs))
	p50("checkpoint.bytes_per_flush_p50", flushBytes)
	p50("checkpoint.s_per_campaign_p50", perCampaign)

	// campaignd, from the client side: the timed loop's calls, or a probe
	// server for in-process workloads.
	if served == nil {
		served = r.probeService()
	}
	v := &r.svc
	p50("campaignd.submit_ms_p50", v.submitMs)
	p50("campaignd.first_point_ms_p50", v.firstPointMs)
	p50("campaignd.point_gap_ms_p50", v.gapMs)
	put("campaignd.ndjson_bytes_per_point", float64(v.streamBytes.Load())/float64(v.events), v.events)
	p50("campaignd.report_fetch_ms_p50", v.fetchMs)
	p50("campaignd.replay_ms_p50", v.replayMs)
	if served != nil {
		put("campaignd.memo_hits", float64(served.MemoHits), 0)
		put("campaignd.points_committed", float64(served.PointsCommitted), 0)
	}

	// workerpool, called directly on gated campaigns beside the in-process
	// sweep of the same points.
	wp := r.probeWorkers()
	p50("workerpool.run_ms_p50", wp.runMs)
	p50("workerpool.inproc_ms_p50", wp.inprocMs)
	p50("workerpool.overhead_ms_p50", wp.overheadMs)
	p50("workerpool.first_point_ms_p50", wp.firstMs)
	put("workerpool.spawns", float64(wp.st.Spawns), 0)
	put("workerpool.leases_issued", float64(wp.st.LeasesIssued), 0)
	put("workerpool.leases_requeued", float64(wp.st.LeasesRequeued), 0)
	wb, wpts, err := readWorkerBytes(workerBytesDir(r.cfg))
	r.check(err)
	put("workerpool.ndjson_bytes_per_point", float64(wb)/float64(wpts), int(wpts))

	p50("host.calib_ns", probeCalib())
	p50("host.fsync_us_p50", r.probeFsync())
	return m
}

// timed runs fn inside a root span of its own and returns its duration.
func (r *runner) timed(cid, name string, fn func() error) (time.Duration, error) {
	id := r.tr.begin(0, name, cid)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end(id)
	return d, err
}

// roundProbe is the per-round cost of the workload's point classes,
// averaged over the classes.
type roundProbe struct {
	classes                        int
	forkedUs, steppedUs, classicUs float64
	allocs, bytes                  float64
	events                         float64
	ops                            map[string]float64
}

// probeRounds times the round paths at GOMAXPROCS=1 on four point
// classes: the first and last point of the first two campaigns, which
// covers both grids of smp-faults.
func (r *runner) probeRounds() (*roundProbe, error) {
	var classes []core.SweepPoint
	for i := 0; i < 2; i++ {
		spec, err := scenario.Parse([]byte(r.inputs[i]), false)
		if err != nil {
			return nil, err
		}
		c, err := scenario.Compile(spec)
		if err != nil {
			return nil, err
		}
		classes = append(classes, c.Points[0], c.Points[len(c.Points)-1])
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rounds := r.cfg.sc.probeRounds
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(rounds) }
	rp := &roundProbe{classes: len(classes), ops: make(map[string]float64)}
	for k, pt := range classes {
		cid := fmt.Sprintf("class%d", k)
		sc := pt.Scenario
		stepped := sc
		stepped.DisableCoalesce = true
		// Warm-up builds the pool workers' fork prefix for this point.
		for _, s := range []core.Scenario{sc, stepped} {
			if _, err := core.RunCampaign(s, max(rounds/10, 1)); err != nil {
				return nil, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d, err := r.timed(cid, "core.RunCampaign", func() error { _, err := core.RunCampaign(sc, rounds); return err })
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		rp.forkedUs += per(d)
		rp.allocs += float64(m1.Mallocs-m0.Mallocs) / float64(rounds)
		rp.bytes += float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds)
		if d, err = r.timed(cid, "core.RunCampaign", func() error { _, err := core.RunCampaign(stepped, rounds); return err }); err != nil {
			return nil, err
		}
		rp.steppedUs += per(d)
		d, err = r.timed(cid, "core.RunRound", func() error {
			for i := 0; i < rounds; i++ {
				classic := sc
				classic.Seed += int64(i+1) * core.SeedStride
				if _, err := core.RunRound(classic); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rp.classicUs += per(d)
		var so simObs
		if _, _, err := core.RunSweepPoints([]core.SweepPoint{{Scenario: sc, Rounds: rounds}}, core.SweepOptions{OnRound: so.observe}); err != nil {
			return nil, err
		}
		rp.events += float64(so.events()) / float64(rounds)
		traced := sc
		traced.Trace = true
		rd, err := core.RunRound(traced)
		if err != nil {
			return nil, err
		}
		for _, ev := range rd.Events {
			if ev.Kind == sim.EvSyscallEnter {
				rp.ops[ev.Label]++
			}
		}
	}
	nc := float64(len(classes))
	rp.forkedUs /= nc
	rp.steppedUs /= nc
	rp.classicUs /= nc
	rp.allocs /= nc
	rp.bytes /= nc
	rp.events /= nc
	for op := range rp.ops {
		rp.ops[op] /= nc
	}
	return rp, nil
}

// probeFS drives each fs operation fsOps times from a simulated task on
// the round's default fixture and returns host ns per call by cost name.
func (r *runner) probeFS() (map[string]float64, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	n := r.cfg.sc.fsOps
	p := core.DefaultPaths()
	k := sim.New(sim.Config{CPUs: 1, Quantum: time.Hour, Seed: 1, MaxTime: time.Hour, MaxSteps: 1 << 40})
	f := fs.New(fs.Config{Latency: fs.DefaultProfile()})
	f.MustMkdirAll("/etc", 0o755, 0, 0)
	f.MustWriteFile(p.Passwd, p.PasswdSize, 0o644, 0, 0)
	f.MustMkdirAll(p.Home, 0o755, 1000, 1000)
	f.MustWriteFile(p.Target, 100<<10, 0o644, 1000, 1000)
	f.MustMkdirAll("/tmp", 0o777|fs.ModeSticky, 0, 0)
	links := make([]string, n)
	for i := range links {
		links[i] = fmt.Sprintf("%s/link%d", p.Home, i)
	}
	files := make([]*fs.File, n)
	out := make(map[string]float64)
	var opErr error
	k.Spawn(k.NewProcess("fsprobe", 0, 0), "fsprobe", func(t *sim.Task) {
		each := func(name string, op func(i int) error) {
			if opErr != nil {
				return
			}
			id := r.tr.begin(0, "fs."+name, "probe.fs")
			defer r.tr.end(id)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := op(i); err != nil {
					opErr = fmt.Errorf("fs probe %s: %w", name, err)
					return
				}
			}
			out[name] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		}
		each("stat", func(int) error { _, err := f.Stat(t, p.Target); return err })
		each("lstat", func(int) error { _, err := f.Lstat(t, p.Target); return err })
		each("open", func(i int) (err error) { files[i], err = f.Open(t, p.Target, fs.ORead, 0); return err })
		each("close", func(i int) error { return files[i].Close(t) })
		each("chown", func(int) error { return f.Chown(t, p.Target, 0, 0) })
		each("chmod", func(int) error { return f.Chmod(t, p.Target, 0o644) })
		each("rename", func(i int) error {
			if i%2 == 0 {
				return f.Rename(t, p.Target, p.Backup)
			}
			return f.Rename(t, p.Backup, p.Target)
		})
		each("symlink", func(i int) error { return f.Symlink(t, p.Passwd, links[i]) })
		each("unlink", func(i int) error { return f.Unlink(t, links[i]) })
		w, err := f.Open(t, p.Temp, fs.OWrite|fs.OCreate, 0o600)
		if err != nil {
			opErr = err
			return
		}
		each("write_8k", func(int) error { return w.Write(t, 8<<10) })
	})
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("fs probe: %w", err)
	}
	return out, opErr
}

// checkpointFlushes is how many flushes probeCheckpoint gathers before
// it stops replaying gated campaigns: enough for the p90. Every flush
// rewrites the whole file, so replaying all of svc-fleet's large gated
// campaigns would add about ten seconds to a traced run on a 2-core VM.
const checkpointFlushes = 100

// probeCheckpoint replays gated campaigns' results, in commit order,
// into core.OpenCheckpoint(...).Flush until it has checkpointFlushes
// flushes, and for workloads with flushSizes also one campaign of each
// of those sizes.
func (r *runner) probeCheckpoint() (flushMs, flushBytes, perCampaign []float64) {
	for i, g := range r.gated {
		if len(flushMs) >= checkpointFlushes {
			break
		}
		cr, err := r.replayCheckpoint(fmt.Sprintf("probe.checkpoint%d", i), g)
		r.check(err)
		if err == nil {
			flushMs = append(flushMs, cr.flushMs...)
			flushBytes = append(flushBytes, cr.bytes...)
			perCampaign = append(perCampaign, cr.total.Seconds())
		}
	}
	for _, size := range r.cfg.w.flushSizes {
		sc := r.cfg.sc
		sc.fleetMin, sc.fleetMax = size, size
		cid := fmt.Sprintf("probe.size%d", size)
		g, err := r.localRun(cid, r.cfg.w.spec(r.cfg.seed, 0, sc))
		if err == nil {
			var cr *checkpointReplay
			if cr, err = r.replayCheckpoint(cid, g); err == nil {
				r.notes = append(r.notes, fmt.Sprintf("checkpoint.flush_ms_p50 for one %d-point campaign: %.4g ms (n=%d)",
					size, stats.Percentile(cr.flushMs, 50), len(cr.flushMs)))
			}
		}
		r.check(err)
	}
	return flushMs, flushBytes, perCampaign
}

// checkpointReplay is one campaign's results flushed into a fresh
// checkpoint: each flush's time and the file size after it.
type checkpointReplay struct {
	flushMs, bytes []float64
	total          time.Duration
}

func (r *runner) replayCheckpoint(cid string, g *localRun) (*checkpointReplay, error) {
	path := filepath.Join(r.cfg.dir, "checkpoint-probe.json")
	os.Remove(path)
	defer os.Remove(path)
	cr := &checkpointReplay{}
	var err error
	cr.total, err = r.timed(cid, "core.OpenCheckpoint", func() error {
		store, err := core.OpenCheckpoint(path, g.compiled.Points, core.AdaptiveStop{})
		if err != nil {
			return err
		}
		for _, p := range g.order {
			t0 := time.Now()
			if err := store.Flush(p, g.results[p]); err != nil {
				return err
			}
			cr.flushMs = append(cr.flushMs, ms(time.Since(t0)))
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			cr.bytes = append(cr.bytes, float64(fi.Size()))
		}
		return nil
	})
	return cr, err
}

// probeService runs the first probeCampaigns campaigns of an in-process
// workload through a campaignd of its own, then resubmits each once, so
// every workload reports the service layer. Reports must match the
// timed loop's.
func (r *runner) probeService() *campaignd.Stats {
	srv, err := startServer(r.cfg, filepath.Join(r.cfg.dir, "probe-data"))
	if err != nil {
		r.check(err)
		return nil
	}
	defer srv.stop()
	cl := r.newClient(srv)
	k := min(r.cfg.sc.probeCampaigns, len(r.okFresh()))
	for _, replay := range []bool{false, true} {
		for i := 0; i < k; i++ {
			rec, err := r.op(cl, -1, fmt.Sprintf("probe.c%d", i), r.inputs[i], replay)
			if err == nil && !bytes.Equal(rec.report, r.fresh[i].report) {
				err = fmt.Errorf("probe campaign %d: served report differs from the in-process one", i)
			}
			r.check(err)
			if err == nil && replay {
				r.svc.observeReplay(rec)
			} else if err == nil {
				r.svc.observe(rec)
			}
		}
	}
	served, err := srv.stats()
	r.check(err)
	return served
}

// probeReplays resubmits the first probeCampaigns finished campaigns to
// the loop's server when the workload's own mix has no cache hits.
func (r *runner) probeReplays() {
	cl := r.newClient(r.srv)
	for i := 0; i < r.cfg.sc.probeCampaigns && r.fresh[i] != nil; i++ {
		if r.fresh[i].ok {
			r.replay(cl, fmt.Sprintf("probe.r%d", i), r.fresh[i])
		}
	}
}

type workerProbe struct {
	runMs, inprocMs, overheadMs, firstMs []float64
	st                                   workerpool.Stats
}

// probeWorkers calls workerpool.Run directly on up to probeCampaigns
// gated campaigns and core.RunSweepPoints on the same points; the fleet's
// report must equal the gate's.
func (r *runner) probeWorkers() *workerProbe {
	wp := &workerProbe{}
	cmd, err := workerCommand()
	if err != nil {
		r.check(err)
		return wp
	}
	cfg := workerpool.Config{
		Workers: probeWorkers,
		Command: cmd,
		Env:     []string{workerBytesEnv + "=" + workerBytesDir(r.cfg)},
	}
	for i, g := range r.gated {
		if i == r.cfg.sc.probeCampaigns {
			break
		}
		cid := fmt.Sprintf("probe.workers%d", i)
		var first time.Duration
		var committed map[int]core.CampaignResult
		var st workerpool.Stats
		t0 := time.Now()
		d, err := r.timed(cid, "workerpool.Run", func() (err error) {
			committed, st, err = workerpool.Run(cfg, "campaign.yaml", []byte(g.spec), g.compiled.Points, nil,
				func(int, core.CampaignResult) error {
					if first == 0 {
						first = time.Since(t0)
					}
					return nil
				})
			return err
		})
		if err == nil {
			results := make([]core.CampaignResult, len(g.compiled.Points))
			for idx, res := range committed {
				results[idx] = res
			}
			var buf bytes.Buffer
			out := &scenario.Outcome{Spec: g.parsed, Compiled: g.compiled, Results: results}
			if err = out.Render(&buf); err == nil && !bytes.Equal(buf.Bytes(), g.report) {
				err = fmt.Errorf("%s: fleet report differs from the in-process one", cid)
			}
		}
		r.check(err)
		if err != nil {
			continue
		}
		inproc, err := r.timed(cid, "core.RunSweepPoints", func() error {
			_, _, err := core.RunSweepPoints(g.compiled.Points, core.SweepOptions{})
			return err
		})
		r.check(err)
		wp.runMs = append(wp.runMs, ms(d))
		wp.inprocMs = append(wp.inprocMs, ms(inproc))
		wp.overheadMs = append(wp.overheadMs, ms(d-inproc))
		wp.firstMs = append(wp.firstMs, ms(first))
		wp.st.Spawns += st.Spawns
		wp.st.LeasesIssued += st.LeasesIssued
		wp.st.LeasesRequeued += st.LeasesRequeued
	}
	return wp
}

// probeWorkers is the fleet size of the workerpool probe, matching
// svc-workers.
const probeWorkers = 2

// calibSteps is the length of host.calib_ns's integer loop.
const calibSteps = 20_000_000

var calibSink uint64

// probeCalib times a fixed integer loop five times. It runs none of the
// code under test, so it tells a slow host from a slow commit.
func probeCalib() []float64 {
	var ns []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x := uint64(rep + 1)
		for i := 0; i < calibSteps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		calibSink += x
	}
	return ns
}

// probeFsync times a 200-byte append plus fsync in the run directory.
func (r *runner) probeFsync() []float64 {
	path := filepath.Join(r.cfg.dir, "fsync-probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		r.check(err)
		return nil
	}
	defer os.Remove(path)
	defer f.Close()
	line := append(bytes.Repeat([]byte{'x'}, 199), '\n')
	var us []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if _, err := f.Write(line); err != nil {
			r.check(err)
			break
		}
		if err := f.Sync(); err != nil {
			r.check(err)
			break
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us
}

// --- worker -------------------------------------------------------------

// workerBytesEnv names the directory where a -worker counts the bytes
// and point messages it writes to its stdout (traced runs only).
const workerBytesEnv = "BENCH_WORKER_BYTES"

func workerBytesDir(cfg runConfig) string { return filepath.Join(cfg.dir, "workers") }

// workerCommand launches one worker: this binary with -worker.
func workerCommand() ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the worker binary: %w", err)
	}
	return []string{exe, "-worker"}, nil
}

// workerMain is the -worker entry campaignd and workerpool.Run spawn:
// workerpool.Serve on stdin/stdout, optionally counting its output.
func workerMain() int {
	out := os.Stdout
	var err error
	if dir := os.Getenv(workerBytesEnv); dir != "" {
		var f *os.File
		if f, err = os.CreateTemp(dir, "worker-*.bytes"); err == nil {
			cw := &countingWriter{w: out, f: f}
			err = workerpool.Serve(os.Stdin, cw)
			f.Close()
		}
	} else {
		err = workerpool.Serve(os.Stdin, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench worker: %v\n", err)
		return 1
	}
	return 0
}

// countingWriter passes protocol messages through and keeps a running
// total of bytes and point messages at the start of f. The worker's
// message writer makes exactly one Write per message.
type countingWriter struct {
	w             *os.File
	f             *os.File
	bytes, points int64
}

var pointPrefix = []byte(`{"type":"point"`)

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.bytes += int64(n)
	if bytes.HasPrefix(p, pointPrefix) {
		c.points++
	}
	if _, werr := c.f.WriteAt([]byte(fmt.Sprintf("%20d %20d\n", c.bytes, c.points)), 0); werr != nil && err == nil {
		err = werr
	}
	return n, err
}

// readWorkerBytes sums every worker's counts.
func readWorkerBytes(dir string) (total, points int64, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "worker-*.bytes"))
	if err != nil {
		return 0, 0, err
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return 0, 0, err
		}
		var b, p int64
		_, err = fmt.Fscan(bufio.NewReader(f), &b, &p)
		f.Close()
		if err == io.EOF {
			continue // killed before its first message
		}
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		total += b
		points += p
	}
	return total, points, nil
}
