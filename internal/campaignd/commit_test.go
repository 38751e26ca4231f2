package campaignd

// Group-commit tests. Executors hand finished points to a committer that
// makes them durable in batches: one job-log write, one fsync, one
// publish. These tests pin what batching must not change: every point
// lands exactly once with contiguous seqs, a failed write or sync fails
// the job with nothing logged after it, a drain settles only once every
// finished point is durable, and no goroutine outlives its job.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tocttou/internal/linelog"
)

// tinySpec compiles to 64 two-round points: many short points, so
// completions arrive faster than one fsync and the committer batches.
func tinySpec(seed int) string {
	return fmt.Sprintf(`name: gc-tiny-%d
machine: up
rounds: 2
seed: %d
victim: vi
attacker: v1
sizes_kb:
  from: 1
  to: 64
  step: 1
`, seed, seed)
}

// readEventLog decodes a job's events.ndjson, which must hold only
// complete point lines, each carrying its result.
func readEventLog(t *testing.T, j *job) []PointEvent {
	t.Helper()
	data, err := os.ReadFile(j.eventsPath())
	if err != nil {
		t.Fatal(err)
	}
	var events []PointEvent
	for _, line := range bytes.SplitAfter(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var l logLine
		if line[len(line)-1] != '\n' || json.Unmarshal(line, &l) != nil || l.Type != "point" || l.Result == nil {
			t.Fatalf("job %s: event log line %q is not a complete point line with its result", j.id, line)
		}
		events = append(events, l.PointEvent)
	}
	return events
}

// checkOncePerPoint asserts the job's log holds every one of its points
// exactly once, with seqs 0..n-1.
func checkOncePerPoint(t *testing.T, label string, j *job, points int) {
	t.Helper()
	checkEventLog(t, label+" events.ndjson", readEventLog(t, j), points)
}

// TestGroupCommitConcurrentJobs runs two campaigns of many tiny points
// at once, in-process and over a two-worker fleet: each job's log holds
// each point once with contiguous seqs and its result, and its report is
// the local run's.
func TestGroupCommitConcurrentJobs(t *testing.T) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"in-process", 0}, {"workers-2", 2}} {
		t.Run(mode.name, func(t *testing.T) {
			var s *Server
			var ts *httptest.Server
			if mode.workers > 0 {
				s, ts = newFleetServer(t, t.TempDir(), mode.workers, "")
			} else {
				s, ts = newTestServer(t, t.TempDir())
			}
			specs := []string{tinySpec(501), tinySpec(502)}
			infos := make([]JobInfo, len(specs))
			ends := make([]*EndEvent, len(specs))
			var wg sync.WaitGroup
			for i, spec := range specs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := testClient(ts.URL)
					info, err := c.Submit("gc-tiny.yaml", []byte(spec))
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					infos[i] = info
					ends[i], err = c.Watch(context.Background(), info.ID, nil)
					if err != nil {
						t.Errorf("watch %s: %v", info.ID, err)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i, spec := range specs {
				if ends[i].State != StateDone || ends[i].Committed != 64 {
					t.Fatalf("job %s ended %q with %d committed (%s), want done with 64", infos[i].ID, ends[i].State, ends[i].Committed, ends[i].Error)
				}
				j := s.lookup(infos[i].ID)
				checkOncePerPoint(t, infos[i].ID, j, 64)
				report, err := testClient(ts.URL).Report(infos[i].ID)
				if err != nil {
					t.Fatal(err)
				}
				if want := localReport(t, "gc-tiny.yaml", spec); string(report) != want {
					t.Errorf("job %s: report diverged from the local run:\n%s", infos[i].ID, report)
				}
			}
		})
	}
}

// faultyLog is an event log whose nth write or sync fails, whose first
// sync can be held until release is closed, and which records the lines
// of every write it is asked for.
type faultyLog struct {
	f         *os.File
	failWrite int // 1-based call that fails; 0 never
	failSync  int
	release   chan struct{} // non-nil: the first sync waits for it

	mu     sync.Mutex
	writes []int // lines per write call, failed ones included
	syncs  int
	failed bool // a call has failed
	after  int  // write and sync calls after the failed one
	wrote  chan struct{}
}

var errInjected = errors.New("injected event-log failure")

func (l *faultyLog) Write(b []byte) (int, error) {
	l.mu.Lock()
	if l.failed {
		l.after++
	}
	l.writes = append(l.writes, bytes.Count(b, []byte{'\n'}))
	n := len(l.writes)
	if n == 1 && l.wrote != nil {
		close(l.wrote)
	}
	fail := n == l.failWrite
	l.failed = l.failed || fail
	l.mu.Unlock()
	if fail {
		return 0, errInjected
	}
	return l.f.Write(b)
}

func (l *faultyLog) Sync() error {
	l.mu.Lock()
	if l.failed {
		l.after++
	}
	l.syncs++
	n := l.syncs
	fail := n == l.failSync
	l.failed = l.failed || fail
	l.mu.Unlock()
	if n == 1 && l.release != nil {
		<-l.release
	}
	if fail {
		return errInjected
	}
	return l.f.Sync()
}

func (l *faultyLog) Close() error { return l.f.Close() }

// injectLog makes every event log this test opens the given faultyLog.
func injectLog(t *testing.T, l *faultyLog) {
	t.Helper()
	orig := linelog.OpenFile
	linelog.OpenFile = func(path string) (linelog.File, error) {
		f, err := orig(path)
		if err != nil {
			return nil, err
		}
		l.f = f.(*os.File)
		return l, nil
	}
	t.Cleanup(func() { linelog.OpenFile = orig })
}

// cutLog is a finished job's log cut to its first n lines: the file a
// crash after n commits leaves.
func cutLog(t *testing.T, src string, n int) []byte {
	t.Helper()
	full, err := os.ReadFile(filepath.Join(src, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Join(bytes.SplitAfter(full, []byte{'\n'})[:n], nil)
}

// TestGroupCommitLogFailureFailsJob resumes a job whose log holds three
// points, which the resume step restores without writing. The
// executor's first batch then fails in the write, or in the sync: the
// job fails, nothing is written or synced after the failure, and only
// the restored lines ever become visible.
func TestGroupCommitLogFailureFailsJob(t *testing.T) {
	info, src := finishedJob(t, "gc-tiny.yaml", tinySpec(503))
	for _, tc := range []struct {
		name                string
		failWrite, failSync int
	}{{"write", 1, 0}, {"sync", 0, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			stageInterrupted(t, info, src, dir, cutLog(t, src, 3))
			l := &faultyLog{failWrite: tc.failWrite, failSync: tc.failSync}
			injectLog(t, l)
			s, ts := newTestServer(t, dir)
			s.wg.Wait()
			j := s.lookup(info.ID)
			got := j.snapshot()
			if got.State != StateFailed || !strings.Contains(got.Error, errInjected.Error()) {
				t.Fatalf("job ended %q (%q), want failed with the injected error", got.State, got.Error)
			}
			if got.Committed != 3 {
				t.Errorf("committed = %d, want the 3 restored points", got.Committed)
			}
			if stored := readState(t, j); stored.State != StateFailed || stored.Committed != 3 {
				t.Errorf("state.json: %q with %d committed, want failed with 3", stored.State, stored.Committed)
			}
			l.mu.Lock()
			writes, after := len(l.writes), l.after
			l.mu.Unlock()
			if writes != 1 || after != 0 {
				t.Errorf("log saw %d writes and %d calls after the failure, want 1 and 0", writes, after)
			}
			var streamed []PointEvent
			end, err := testClient(ts.URL).Watch(context.Background(), info.ID, func(ev PointEvent) { streamed = append(streamed, ev) })
			if err != nil {
				t.Fatal(err)
			}
			if end.State != StateFailed {
				t.Errorf("stream ended %q, want failed", end.State)
			}
			checkEventLog(t, "stream", streamed, 3)
			if events := readEventLog(t, j); tc.name == "write" && len(events) != 3 {
				t.Errorf("events.ndjson holds %d lines after a failed write, want 3", len(events))
			}
		})
	}
}

// TestGroupCommitDrainWhileQueued holds the job's first fsync while the
// sweep keeps finishing points, drains the server, and only then lets
// the sync return. The job must end interrupted with every queued point
// durable — the log holds exactly Committed lines — and a restart must
// finish it with the uninterrupted run's report.
func TestGroupCommitDrainWhileQueued(t *testing.T) {
	const drainSpec = `name: gc-drain
machine: smp2
rounds: 30
seed: 9093
victim: vi
attacker: v1
sizes_kb:
  from: 10
  to: 1200
  step: 10
`
	dir := t.TempDir()
	l := &faultyLog{release: make(chan struct{}), wrote: make(chan struct{})}
	injectLog(t, l)
	s1, err := New(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	info, err := testClient(ts.URL).Submit("gc-drain.yaml", []byte(drainSpec))
	ts.Close()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.wrote:
	case <-time.After(30 * time.Second):
		t.Fatal("no batch written within 30s")
	}
	// Completions queue behind the held sync.
	time.Sleep(30 * time.Millisecond)
	drained := make(chan struct{})
	go func() {
		s1.Drain()
		close(drained)
	}()
	for !s1.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(l.release)
	<-drained

	j := s1.lookup(info.ID)
	st := j.snapshot()
	if st.State == StateDone {
		t.Skip("campaign finished before the drain landed; nothing mid-sweep to resume")
	}
	if st.State != StateInterrupted {
		t.Fatalf("post-drain state = %q (%s), want interrupted", st.State, st.Error)
	}
	events := readEventLog(t, j)
	checkEventLog(t, "drained log", events, st.Committed)
	l.mu.Lock()
	first := l.writes[0]
	l.mu.Unlock()
	t.Logf("first batch %d points; %d committed at drain", first, st.Committed)

	s2, ts2 := newTestServer(t, dir)
	s2.wg.Wait()
	if got := s2.lookup(info.ID).snapshot(); got.State != StateDone {
		t.Fatalf("resumed job ended %q (%s)", got.State, got.Error)
	}
	checkOncePerPoint(t, "resumed", s2.lookup(info.ID), info.Points)
	report, err := testClient(ts2.URL).Report(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := localReport(t, "gc-drain.yaml", drainSpec); string(report) != want {
		t.Errorf("resumed report diverged from the uninterrupted run:\n%s", report)
	}
}

// TestGroupCommitNoGoroutineOutlivesJob runs many jobs one after another
// and requires the goroutine count to stay where the first job left it.
// A committer that outlived its job would add one per job. The bound is
// core's TestSweepCallerStatesBounded's: pooled round contexts park
// thread shells; more jobs run than it allows for.
func TestGroupCommitNoGoroutineOutlivesJob(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	slack := 2 * runtime.GOMAXPROCS(0) * 4
	jobs := slack + 24
	var first int
	for i := 0; i < jobs; i++ {
		spec := fmt.Sprintf("name: gc-leak-%d\nmachine: up\nrounds: 2\nseed: %d\nvictim: vi\nattacker: v1\nsizes_kb: [1, 2, 3]\n", i, 7000+i)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns?filename=leak.yaml", strings.NewReader(spec)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
		s.wg.Wait()
		var info JobInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		if got := s.lookup(info.ID).snapshot(); got.State != StateDone {
			t.Fatalf("job %d ended %q (%s)", i, got.State, got.Error)
		}
		runtime.GC()
		if i == 0 {
			first = runtime.NumGoroutine()
		}
	}
	bound := first + slack
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > bound && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > bound {
		t.Fatalf("goroutines grew from %d after the first job to %d after %d (bound %d): something outlives its job", first, got, jobs, bound)
	}
}
