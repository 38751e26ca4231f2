package workerpool

// The supervisor half: Run drives every pending point of a campaign to
// a committed (or quarantined) state across a fleet of worker
// subprocesses. One event-loop goroutine owns all fleet state; per-
// worker reader goroutines feed it a single events channel, so there is
// no locking between supervision decisions.
//
// Failure handling, in one place:
//
//   - Liveness: any message (heartbeats included) refreshes a worker's
//     deadline; a worker silent for LeaseTimeout is killed and treated
//     like a crash. Heartbeats keep long-running points alive.
//   - Crash: the dead worker's lease splits. Points it already
//     committed (fingerprint-verified on arrival) are NOT requeued —
//     the exactly-once seam, counted in PointsDeduped. The rest requeue
//     at the front of the queue, and the first uncommitted point takes
//     the blame for the kill (the worker executes its lease in order,
//     so that is the point it died on).
//   - Quarantine: a point blamed for MaxPointRetries kills is a poison
//     point. It is set aside and reported instead of retried forever,
//     and the rest of the campaign completes — graceful degradation,
//     not fail-fast.
//   - Restart: every death schedules a replacement after a
//     deterministic seeded exponential backoff with jitter, bounded by
//     MaxRestarts so a totally broken worker binary terminates the run
//     with a diagnosis instead of flapping forever.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"tocttou/internal/core"
)

// Config tunes a fleet.
type Config struct {
	// Workers is the target number of live worker processes; must be > 0.
	Workers int
	// Command launches one worker (argv; Command[0] is the binary). The
	// supervisor appends TOCTTOU_WORKER_ID=<incarnation> to its env.
	Command []string
	// Env is extra environment appended to os.Environ() for every worker.
	Env []string
	// HeartbeatInterval paces worker heartbeats (sent in the load
	// message); 0 selects 100ms.
	HeartbeatInterval time.Duration
	// LeaseTimeout is the inactivity deadline: a worker that sends
	// nothing (not even a heartbeat) for this long is killed and its
	// lease requeued. 0 selects 10s; it must exceed HeartbeatInterval.
	LeaseTimeout time.Duration
	// MaxPointRetries is the number of worker kills one point may be
	// blamed for before it is quarantined; 0 selects 3.
	MaxPointRetries int
	// BackoffBase/BackoffMax shape the restart delay: min(BackoffMax,
	// BackoffBase << consecutiveFailures) plus deterministic jitter in
	// [0, BackoffBase). Zero values select 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxRestarts bounds total worker replacements; 0 selects 100.
	MaxRestarts int
	// Interrupt, when closed, stops the fleet at the next event: workers
	// are killed and reaped, committed points stay committed, and Run
	// returns ErrInterrupted — the daemon's drain path.
	Interrupt <-chan struct{}
	// Logf receives supervision events; nil discards them.
	Logf func(format string, args ...any)
	// Stderr receives the workers' stderr; nil selects os.Stderr.
	Stderr io.Writer
}

func (c Config) withDefaults() (Config, error) {
	if c.Workers <= 0 {
		return c, fmt.Errorf("workerpool: need workers > 0, got %d", c.Workers)
	}
	if len(c.Command) == 0 || c.Command[0] == "" {
		return c, errors.New("workerpool: empty worker command")
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 10 * time.Second
	}
	if c.LeaseTimeout <= c.HeartbeatInterval {
		return c, fmt.Errorf("workerpool: lease timeout %v must exceed heartbeat interval %v", c.LeaseTimeout, c.HeartbeatInterval)
	}
	if c.MaxPointRetries <= 0 {
		c.MaxPointRetries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 100
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Stderr == nil {
		c.Stderr = os.Stderr
	}
	return c, nil
}

// Quarantine records one poison point: a point blamed for killing
// MaxPointRetries workers, set aside so the campaign could finish.
type Quarantine struct {
	Point int `json:"point"`
	Kills int `json:"kills"`
}

// Stats reports what supervision had to do.
type Stats struct {
	// Spawns counts every worker process started; Restarts counts the
	// replacements among them (Spawns - initial fleet).
	Spawns   int
	Restarts int
	// Stalls counts workers killed by the inactivity deadline.
	Stalls int
	// LeasesIssued counts leases dispatched; LeasesRequeued counts
	// leases a worker death sent back to the queue.
	LeasesIssued   int
	LeasesRequeued int
	// PointsDeduped counts committed points a dead or slow worker's
	// lease would have re-run — detected by the committed store and
	// dropped instead of double-counted (the exactly-once seam).
	PointsDeduped int
	// Quarantined lists poison points, ascending by point index.
	Quarantined []Quarantine
}

// leasePoints is the maximum points per lease. Small leases bound the
// work a crash can strand behind a dead worker.
const leasePoints = 2

// backoffSeed seeds the restart jitter stream: the same death sequence
// gives the same delays, keeping soak timings reproducible.
const backoffSeed = 1

// ErrInterrupted reports a fleet stopped by the Interrupt channel with
// every result committed so far already delivered through onPoint.
var ErrInterrupted = errors.New("workerpool: fleet interrupted")

// Run executes every point of the grid not already present in restored,
// calling onPoint(index, result) exactly once per newly committed point
// (arrival order, one goroutine). It returns the full committed map
// (restored entries included), supervision stats, and an error: nil
// when every point committed or quarantined, ErrInterrupted on drain,
// or a terminal supervision failure (restart budget exhausted, onPoint
// error). filename and spec are shipped to workers verbatim; the grid's
// fingerprint guards against compiling them differently there.
func Run(cfg Config, filename string, spec []byte, points []core.SweepPoint, restored map[int]core.CampaignResult, onPoint func(int, core.CampaignResult) error) (map[int]core.CampaignResult, Stats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, Stats{}, err
	}
	sweepFP, fps := core.Fingerprints(points)
	r := &fleetRun{
		cfg:         cfg,
		filename:    filename,
		spec:        spec,
		points:      points,
		sweepFP:     sweepFP,
		fps:         fps,
		committed:   make(map[int]core.CampaignResult, len(points)),
		kills:       make(map[int]int),
		quarantined: make(map[int]int),
		workers:     make(map[int]*proc),
		events:      make(chan fleetEvent, 16),
		done:        make(chan struct{}),
		onPoint:     onPoint,
	}
	for i := range points {
		if res, ok := restored[i]; ok {
			r.committed[i] = res
		} else {
			r.pending = append(r.pending, i)
		}
	}
	return r.run()
}

type evKind int

const (
	evMsg evKind = iota
	evExit
	evSpawn
)

type fleetEvent struct {
	kind evKind
	p    *proc
	msg  *Message
	err  error // evExit: the process's wait error (nil on clean exit)
}

// proc is one worker process. lastMsg is written by the reader
// goroutine and read by the event loop's deadline check; everything
// else is event-loop-owned.
type proc struct {
	id      int
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	lastMsg atomic.Int64 // latest receive time, unix nanos

	loaded  bool
	lease   []int // leased point indices; nil when idle
	leaseID int
	killed  bool // supervisor-initiated kill (deadline, bad message or teardown)
}

// holds reports whether point idx belongs to the lease p is working on.
func (p *proc) holds(lease, idx int) bool {
	return p.lease != nil && lease == p.leaseID && slices.Contains(p.lease, idx)
}

type fleetRun struct {
	cfg      Config
	filename string
	spec     []byte
	points   []core.SweepPoint
	sweepFP  uint64
	fps      []uint64
	onPoint  func(int, core.CampaignResult) error

	committed   map[int]core.CampaignResult
	pending     []int // point indices awaiting a lease, front = next
	kills       map[int]int
	quarantined map[int]int // point -> kills at quarantine time

	workers    map[int]*proc
	nextID     int
	leaseSeq   int
	failStreak int // deaths since the last successful ack; backoff exponent
	timers     []*time.Timer

	events chan fleetEvent
	done   chan struct{}
	stats  Stats
}

// post delivers an event unless the fleet is already torn down.
func (r *fleetRun) post(ev fleetEvent) {
	select {
	case r.events <- ev:
	case <-r.done:
	}
}

func (r *fleetRun) settled() bool {
	return len(r.committed)+len(r.quarantined) == len(r.points)
}

func (r *fleetRun) run() (map[int]core.CampaignResult, Stats, error) {
	defer r.teardown()
	for i := 0; i < r.cfg.Workers && !r.settled(); i++ {
		if err := r.spawn(); err != nil {
			return r.committed, r.finalStats(), fmt.Errorf("workerpool: spawning worker: %w", err)
		}
	}
	ticker := time.NewTicker(r.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for !r.settled() {
		select {
		case <-r.cfg.Interrupt:
			return r.committed, r.finalStats(), ErrInterrupted
		case ev := <-r.events:
			if err := r.handle(ev); err != nil {
				return r.committed, r.finalStats(), err
			}
		case <-ticker.C:
			r.checkDeadlines()
		}
	}
	return r.committed, r.finalStats(), nil
}

func (r *fleetRun) finalStats() Stats {
	st := r.stats
	for p, k := range r.quarantined {
		st.Quarantined = append(st.Quarantined, Quarantine{Point: p, Kills: k})
	}
	sort.Slice(st.Quarantined, func(a, b int) bool { return st.Quarantined[a].Point < st.Quarantined[b].Point })
	return st
}

// spawn starts one worker with a fresh incarnation id and sends it the
// load message. A child that dies instantly is handled by its reader's
// exit event like any other death.
func (r *fleetRun) spawn() error {
	id := r.nextID
	r.nextID++
	cmd := exec.Command(r.cfg.Command[0], r.cfg.Command[1:]...)
	cmd.Env = append(append(os.Environ(), r.cfg.Env...), fmt.Sprintf("TOCTTOU_WORKER_ID=%d", id))
	cmd.Stderr = r.cfg.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	p := &proc{id: id, cmd: cmd, stdin: stdin}
	p.lastMsg.Store(time.Now().UnixNano())
	r.workers[id] = p
	r.stats.Spawns++
	go r.read(p, stdout)
	r.send(p, &Message{
		Type:        MsgLoad,
		Filename:    r.filename,
		Spec:        r.spec,
		Fingerprint: fpString(r.sweepFP),
		HeartbeatMS: int(r.cfg.HeartbeatInterval / time.Millisecond),
	})
	r.cfg.Logf("workerpool: spawned worker %d (pid %d)", id, cmd.Process.Pid)
	return nil
}

// read is the per-worker reader goroutine: it forwards complete
// messages, then — stdout being closed is how a worker's death is
// observed — reaps the process and posts its exit. Per worker, the exit
// event is therefore always the last event.
func (r *fleetRun) read(p *proc, stdout io.Reader) {
	lr := newLineReader(stdout)
	for {
		msg, err := lr.next()
		if err != nil {
			break // EOF (clean or torn tail) or malformed line: treat as death
		}
		p.lastMsg.Store(time.Now().UnixNano())
		r.post(fleetEvent{kind: evMsg, p: p, msg: msg})
	}
	err := p.cmd.Wait()
	r.post(fleetEvent{kind: evExit, p: p, err: err})
}

// send writes a message to a worker. A write failure means the worker
// is dying; its exit event will requeue whatever it was assigned.
func (r *fleetRun) send(p *proc, m *Message) {
	w := msgWriter{w: p.stdin}
	if err := w.send(m); err != nil {
		r.cfg.Logf("workerpool: worker %d: write failed (dying?): %v", p.id, err)
	}
}

func (r *fleetRun) handle(ev fleetEvent) error {
	switch ev.kind {
	case evSpawn:
		if r.settled() {
			return nil
		}
		if err := r.spawn(); err != nil {
			return fmt.Errorf("workerpool: respawning worker: %w", err)
		}
		return nil
	case evExit:
		return r.handleExit(ev.p, ev.err)
	default:
		return r.handleMsg(ev.p, ev.msg)
	}
}

func (r *fleetRun) handleMsg(p *proc, msg *Message) error {
	if p.killed {
		// A replaced worker's buffered messages are void: its exit event
		// settles the lease and blames the point it was killed on.
		return nil
	}
	switch msg.Type {
	case MsgHeartbeat:
		return nil // liveness already recorded by the reader
	case MsgLoaded:
		if msg.NumPoints != len(r.points) {
			r.cfg.Logf("workerpool: worker %d compiled %d points, want %d; replacing it", p.id, msg.NumPoints, len(r.points))
			r.kill(p)
			return nil
		}
		p.loaded = true
		r.assign(p)
		return nil
	case MsgPoint:
		return r.ingest(p, msg)
	case MsgAck:
		// Defensive: every leased point should have arrived before the
		// ack; requeue any that did not instead of losing them.
		var missing []int
		for _, idx := range p.lease {
			if !r.pointSettled(idx) {
				missing = append(missing, idx)
			}
		}
		if len(missing) > 0 {
			r.cfg.Logf("workerpool: worker %d acked lease %d with %d missing points; requeueing %v", p.id, msg.Lease, len(missing), missing)
			r.requeueFront(missing)
		}
		p.lease = nil
		r.failStreak = 0 // the fleet is making progress; reset backoff
		r.assign(p)
		return nil
	case MsgError:
		r.cfg.Logf("workerpool: worker %d reported: %s", p.id, msg.Error)
		return nil // its exit event follows and handles the lease
	default:
		r.cfg.Logf("workerpool: worker %d sent unexpected %q; replacing it", p.id, msg.Type)
		r.kill(p)
		return nil
	}
}

// ingest folds one worker-committed result: checked against the lease
// the worker holds, fingerprint-verified against the supervisor's own
// view of the grid, deduplicated against the committed store, delivered
// to onPoint exactly once.
func (r *fleetRun) ingest(p *proc, msg *Message) error {
	idx := msg.Point
	if idx < 0 || idx >= len(r.points) || msg.Result == nil || !p.holds(msg.Lease, idx) {
		r.cfg.Logf("workerpool: worker %d sent invalid point message (lease=%d point=%d); replacing it", p.id, msg.Lease, idx)
		r.kill(p)
		return nil
	}
	if msg.FP != fpString(r.fps[idx]) {
		r.cfg.Logf("workerpool: worker %d result for point %d carries fingerprint %s, want %s; discarding and replacing it", p.id, idx, msg.FP, fpString(r.fps[idx]))
		r.kill(p)
		return nil
	}
	if _, dup := r.committed[idx]; dup {
		// A requeued lease raced a dying worker's buffered commit: the
		// point is already folded, drop the duplicate.
		r.stats.PointsDeduped++
		return nil
	}
	if _, q := r.quarantined[idx]; q {
		// A straggler outlived the point's quarantine decision; the
		// campaign already settled this point as poisoned.
		r.cfg.Logf("workerpool: worker %d committed already-quarantined point %d; dropping", p.id, idx)
		return nil
	}
	if err := r.onPoint(idx, *msg.Result); err != nil {
		return fmt.Errorf("workerpool: committing point %d: %w", idx, err)
	}
	r.committed[idx] = *msg.Result
	return nil
}

// assign hands the next lease to an idle loaded worker. Only handleMsg
// calls it, never for a killed worker.
func (r *fleetRun) assign(p *proc) {
	if !p.loaded || p.lease != nil || len(r.pending) == 0 {
		return
	}
	n := leasePoints
	if n > len(r.pending) {
		n = len(r.pending)
	}
	lease := append([]int(nil), r.pending[:n]...)
	r.pending = r.pending[n:]
	r.leaseSeq++
	p.lease = lease
	p.leaseID = r.leaseSeq
	r.stats.LeasesIssued++
	r.send(p, &Message{Type: MsgLease, Lease: p.leaseID, Points: lease})
}

// handleExit settles a dead worker: split its lease along the committed
// boundary, blame the in-progress point, quarantine it if it has killed
// enough workers, and schedule a replacement after backoff.
func (r *fleetRun) handleExit(p *proc, werr error) error {
	delete(r.workers, p.id)
	deliberate := p.killed
	if p.lease != nil {
		var uncommitted []int
		for _, idx := range p.lease {
			if _, ok := r.committed[idx]; ok {
				// Committed before the death: the exactly-once seam. The
				// result is already folded; requeueing it would double-count.
				r.stats.PointsDeduped++
				continue
			}
			if _, q := r.quarantined[idx]; q {
				continue
			}
			uncommitted = append(uncommitted, idx)
		}
		p.lease = nil
		if len(uncommitted) > 0 {
			r.stats.LeasesRequeued++
			// Every death — crash, stall kill, bad message — blames the
			// lease's first uncommitted point: the worker executes its
			// lease in order, so that is the point it died on.
			blame := uncommitted[0]
			r.kills[blame]++
			if r.kills[blame] >= r.cfg.MaxPointRetries {
				r.quarantined[blame] = r.kills[blame]
				r.cfg.Logf("workerpool: point %d quarantined after %d worker kills (poison point); campaign continues without it", blame, r.kills[blame])
				uncommitted = uncommitted[1:]
			}
			r.requeueFront(uncommitted)
		}
	}
	if !deliberate {
		r.cfg.Logf("workerpool: worker %d died: %v", p.id, exitDesc(werr))
	}
	if r.settled() {
		return nil
	}
	if r.stats.Restarts >= r.cfg.MaxRestarts {
		return fmt.Errorf("workerpool: restart budget exhausted after %d replacements (last death: %v)", r.cfg.MaxRestarts, exitDesc(werr))
	}
	r.stats.Restarts++
	r.failStreak++
	delay := backoffDelay(backoffSeed, p.id, r.failStreak, r.cfg.BackoffBase, r.cfg.BackoffMax)
	r.cfg.Logf("workerpool: restarting worker in %v (replacement %d/%d)", delay, r.stats.Restarts, r.cfg.MaxRestarts)
	r.timers = append(r.timers, time.AfterFunc(delay, func() {
		r.post(fleetEvent{kind: evSpawn})
	}))
	return nil
}

// requeueFront puts points back at the head of the queue so recovery
// work happens before new work.
func (r *fleetRun) requeueFront(pts []int) {
	if len(pts) == 0 {
		return
	}
	r.pending = append(append(make([]int, 0, len(pts)+len(r.pending)), pts...), r.pending...)
}

func (r *fleetRun) pointSettled(idx int) bool {
	if _, ok := r.committed[idx]; ok {
		return true
	}
	_, q := r.quarantined[idx]
	return q
}

// checkDeadlines kills workers silent past the lease timeout. The kill
// closes their stdout, so the normal exit path requeues their lease.
func (r *fleetRun) checkDeadlines() {
	now := time.Now().UnixNano()
	for _, p := range r.workers {
		if p.killed {
			continue
		}
		if last := p.lastMsg.Load(); now-last > int64(r.cfg.LeaseTimeout) {
			r.stats.Stalls++
			r.cfg.Logf("workerpool: worker %d silent for over %v; killing it and requeueing its lease", p.id, r.cfg.LeaseTimeout)
			r.kill(p)
		}
	}
}

// kill terminates a worker; its reader goroutine observes the closed
// stdout, reaps the process, and posts the exit event that settles its
// lease.
func (r *fleetRun) kill(p *proc) {
	p.killed = true
	p.stdin.Close()
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
}

// teardown kills and reaps every remaining worker — no orphaned
// children, whatever path Run exits by — then releases any pending
// restart timers.
func (r *fleetRun) teardown() {
	for _, p := range r.workers {
		p.killed = true
		p.stdin.Close()
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
		}
	}
	// Drain events until every reader has reaped its process and posted
	// the exit; late messages and restart firings are discarded.
	for len(r.workers) > 0 {
		ev := <-r.events
		if ev.kind == evExit {
			delete(r.workers, ev.p.id)
		}
	}
	for _, t := range r.timers {
		t.Stop()
	}
	close(r.done)
}

func exitDesc(err error) string {
	if err == nil {
		return "exit status 0"
	}
	return err.Error()
}

// backoffDelay is the deterministic restart delay: exponential in the
// fleet's consecutive-failure streak, capped at max, plus splitmix64
// jitter in [0, base) derived from (seed, workerID, attempt) — same
// inputs, same delay, so soak timings reproduce.
func backoffDelay(seed uint64, workerID, attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	j := splitmix64(seed ^ uint64(workerID)<<32 ^ uint64(attempt))
	return d + time.Duration(j%uint64(base))
}

// splitmix64 is the standard 64-bit finalizer-style mixer; good jitter
// from sequential inputs, no state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
