package workerpool

// The worker half of the protocol: the body of `tocttoud -worker`. A
// worker is deliberately dumb — it recompiles the spec it is handed,
// verifies the fingerprint, and executes leased points one at a time,
// committing each result the moment it is done. All policy (lease
// sizing, retries, requeue, quarantine) lives in the supervisor; all a
// worker can do wrong is die, which is exactly the failure mode the
// supervisor is built to absorb.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

// Main is the `tocttoud -worker` entry point: identity and chaos come
// from the environment (TOCTTOU_WORKER_ID, TOCTTOU_CHAOS), the protocol
// runs on stdin/stdout. It returns the process exit code.
func Main() int {
	if err := Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tocttoud worker: %v\n", err)
		return 1
	}
	return 0
}

// Serve runs one worker over in/out with identity and chaos schedule
// read from the environment.
func Serve(in io.Reader, out io.Writer) error {
	id := 0
	if v := os.Getenv("TOCTTOU_WORKER_ID"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("bad TOCTTOU_WORKER_ID %q: want a non-negative integer", v)
		}
		id = n
	}
	var chaos *Schedule
	if v := os.Getenv("TOCTTOU_CHAOS"); v != "" {
		var err error
		if chaos, err = ParseSchedule(v); err != nil {
			return err
		}
	}
	return RunWorker(in, out, id, chaos)
}

// RunWorker serves the lease protocol until stdin closes (the daemon's
// quit signal) or a protocol error makes continuing unsafe. Chaos
// directives may terminate the process from inside.
func RunWorker(in io.Reader, out io.Writer, workerID int, chaos *Schedule) error {
	w := &worker{
		id:    workerID,
		chaos: chaos,
		in:    newLineReader(in),
		out:   &msgWriter{w: out},
	}
	defer w.stopHeartbeat()
	return w.serve()
}

type worker struct {
	id    int
	chaos *Schedule
	in    *lineReader
	out   *msgWriter

	points   []core.SweepPoint
	fps      []uint64
	executed int // points begun across all leases: the chaos @N counter

	stalled atomic.Bool
	hbStop  chan struct{}
}

func (w *worker) serve() error {
	for {
		msg, err := w.in.next()
		if err == io.EOF {
			return nil // daemon closed our stdin: done
		}
		if err != nil {
			return err
		}
		switch msg.Type {
		case MsgLoad:
			err = w.load(msg)
		case MsgLease:
			if w.points == nil {
				err = fmt.Errorf("workerpool: lease before load")
			} else {
				err = w.lease(msg)
			}
		default:
			err = fmt.Errorf("workerpool: unexpected %q message from daemon", msg.Type)
		}
		if err != nil {
			// Dying words: best-effort, the exit status tells the same story.
			w.out.send(&Message{Type: MsgError, Error: err.Error()})
			return err
		}
	}
}

func (w *worker) load(msg *Message) error {
	spec, err := scenario.LoadBytes(msg.Filename, msg.Spec)
	if err != nil {
		return err
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		return fmt.Errorf("compiling %s: %w", msg.Filename, err)
	}
	fp, fps := core.Fingerprints(compiled.Points)
	if got := fpString(fp); got != msg.Fingerprint {
		return fmt.Errorf("workerpool: %s compiles to fingerprint %s here, daemon expects %s (binary version skew?)", msg.Filename, got, msg.Fingerprint)
	}
	w.points, w.fps = compiled.Points, fps
	interval := time.Duration(msg.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	w.hbStop = make(chan struct{})
	go w.heartbeat(interval)
	return w.out.send(&Message{Type: MsgLoaded, NumPoints: len(w.points), Fingerprint: msg.Fingerprint})
}

func (w *worker) heartbeat(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if w.stalled.Load() {
				return
			}
			if w.out.send(&Message{Type: MsgHeartbeat}) != nil {
				return // daemon gone; the read loop will see EOF
			}
		case <-w.hbStop:
			return
		}
	}
}

func (w *worker) stopHeartbeat() {
	if w.hbStop != nil {
		close(w.hbStop)
		w.hbStop = nil
	}
}

// lease executes the leased points sequentially — rounds within a point
// still spread over one executor per host core — committing each result the
// moment it is done, then acks. Sequential execution keeps crash blame
// precise: the supervisor attributes a death to the first uncommitted
// point of the lease, which is exactly the one in progress.
func (w *worker) lease(msg *Message) error {
	for _, idx := range msg.Points {
		if idx < 0 || idx >= len(w.points) {
			return fmt.Errorf("workerpool: leased point %d out of range [0, %d)", idx, len(w.points))
		}
		w.executed++
		if d := w.chaos.match(w.id, w.executed, idx, false); d != nil {
			w.act(d)
		}
		res, _, err := core.RunSweepSubset(w.points, []int{idx}, core.SweepOptions{})
		if err != nil {
			return err
		}
		pm := &Message{Type: MsgPoint, Lease: msg.Lease, Point: idx, FP: fpString(w.fps[idx]), Result: &res[0]}
		if d := w.chaos.match(w.id, w.executed, idx, true); d != nil {
			if d.action == actTorn {
				w.out.sendTorn(pm)
				os.Exit(ExitTorn)
			}
			// crash-after: the result reaches the daemon, the ack never
			// does — the exactly-once requeue drill.
			w.out.send(pm)
			os.Exit(ExitCrashAfter)
		}
		if err := w.out.send(pm); err != nil {
			return err
		}
	}
	return w.out.send(&Message{Type: MsgAck, Lease: msg.Lease})
}

// act performs a before-simulation chaos action. crash and exit do not
// return; stall silences the heartbeat and hangs forever (the
// supervisor's lease deadline must reap the process).
func (w *worker) act(d *directive) {
	switch d.action {
	case actCrash:
		os.Exit(ExitCrash)
	case actExit:
		os.Exit(d.code)
	case actStall:
		// Sleep-loop rather than select{}: with every other goroutine
		// parked the runtime would diagnose a deadlock and exit, which
		// reads as a crash, not the silent livelock being simulated.
		w.stalled.Store(true)
		for {
			time.Sleep(time.Hour)
		}
	}
}
