package campaignd

// Service-level tests for fleet mode: the server configured with
// Workers > 0 must honor every contract the in-process path does —
// byte-identical reports, exactly-once event streams, drain/resume —
// while absorbing worker crashes injected through TOCTTOU_CHAOS. The
// worker subprocess is this test binary itself: TestMain diverts
// re-executions flagged with TOCTTOU_WORKER_PROCESS=1 into
// workerpool.Main before any test runs.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tocttou/internal/workerpool"
)

func TestMain(m *testing.M) {
	if os.Getenv("TOCTTOU_WORKER_PROCESS") == "1" {
		os.Exit(workerpool.Main())
	}
	os.Exit(m.Run())
}

// fleetConfig builds a server config running campaigns over a worker
// fleet of this test binary, with an optional chaos schedule.
func fleetConfig(t *testing.T, dir string, workers int, chaos string) Config {
	t.Helper()
	env := []string{"TOCTTOU_WORKER_PROCESS=1"}
	if chaos != "" {
		env = append(env, "TOCTTOU_CHAOS="+chaos)
	}
	return Config{
		DataDir:           dir,
		Workers:           workers,
		WorkerCommand:     []string{os.Args[0]},
		WorkerEnv:         env,
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseTimeout:      5 * time.Second,
		Logf:              t.Logf,
	}
}

func newFleetServer(t *testing.T, dir string, workers int, chaos string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(fleetConfig(t, dir, workers, chaos))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

func statsBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := copyBody(&buf, resp); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	return buf.String()
}

func TestNewRejectsWorkersWithoutCommand(t *testing.T) {
	_, err := New(Config{DataDir: t.TempDir(), Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "WorkerCommand") {
		t.Fatalf("New(Workers: 2, no command) err = %v, want a WorkerCommand error", err)
	}
}

// TestFleetModeReportMatchesLocal is fleet mode's core contract: with
// no chaos, a campaign executed by worker subprocesses produces the
// byte-identical report and the same gapless event stream an in-process
// run does, with zero supervision interventions.
func TestFleetModeReportMatchesLocal(t *testing.T) {
	_, ts := newFleetServer(t, t.TempDir(), 3, "")
	c := testClient(ts.URL)
	info, err := c.Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var events []PointEvent
	end, err := c.Watch(context.Background(), info.ID, func(ev PointEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if end.State != StateDone {
		t.Fatalf("end state = %q, want done (err %q)", end.State, end.Error)
	}
	checkEventLog(t, "fleet clean", events, 3)
	got, err := c.Report(info.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if want := localReport(t, "svc-small.yaml", smallSpec); string(got) != want {
		t.Errorf("fleet report diverged from the local run:\n--- fleet ---\n%s--- local ---\n%s", got, want)
	}
	body := statsBody(t, ts.URL)
	for _, want := range []string{`"worker_restarts":0`, `"points_deduped":0`, `"points_quarantined":0`} {
		if !strings.Contains(body, want) {
			t.Errorf("clean fleet stats %s missing %s", body, want)
		}
	}
}

// TestFleetModeChaosRecoveryExactlyOnce kills the first two worker
// incarnations — one before its first result, one between committing a
// result and acking the lease (the exactly-once seam) — and requires
// the campaign to still deliver every point exactly once with a
// byte-identical report, surfacing the recovery in /v1/stats. The fleet
// has one live worker, so each incarnation in turn takes the first
// pending lease and both deaths always fire: with two, one worker could
// finish the grid before the other ever loaded.
func TestFleetModeChaosRecoveryExactlyOnce(t *testing.T) {
	_, ts := newFleetServer(t, t.TempDir(), 1, "w0:crash@1;w1:crash-after@1")
	c := testClient(ts.URL)
	info, err := c.Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var events []PointEvent
	end, err := c.Watch(context.Background(), info.ID, func(ev PointEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if end.State != StateDone {
		t.Fatalf("end state = %q, want done (err %q)", end.State, end.Error)
	}
	checkEventLog(t, "fleet chaos", events, 3)
	got, err := c.Report(info.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if want := localReport(t, "svc-small.yaml", smallSpec); string(got) != want {
		t.Errorf("chaos-recovered report diverged from the local run:\n--- fleet ---\n%s--- local ---\n%s", got, want)
	}
	body := statsBody(t, ts.URL)
	for _, want := range []string{`"points_committed":3`, `"points_quarantined":0`} {
		if !strings.Contains(body, want) {
			t.Errorf("chaos stats %s missing %s", body, want)
		}
	}
	// Two workers were killed (one crash, one crash-after), so at least
	// two restarts; the crash-after worker's committed point must have
	// been deduplicated on requeue, not double-counted.
	if strings.Contains(body, `"worker_restarts":0`) || strings.Contains(body, `"worker_restarts":1,`) {
		t.Errorf("chaos stats %s: want worker_restarts >= 2", body)
	}
	if strings.Contains(body, `"points_deduped":0`) {
		t.Errorf("chaos stats %s: want points_deduped >= 1", body)
	}
	if strings.Contains(body, `"leases_requeued":0`) {
		t.Errorf("chaos stats %s: want leases_requeued >= 1", body)
	}
}

// TestFleetModeQuarantineSurfaced poisons one point (every worker
// reaching it crashes) and checks graceful degradation end to end: the
// job completes, the other points commit, and the quarantine shows up
// in the job info, the end event, the report appendix, and /v1/stats.
func TestFleetModeQuarantineSurfaced(t *testing.T) {
	s, ts := newFleetServer(t, t.TempDir(), 2, "crash@point=1")
	_ = s
	c := testClient(ts.URL)
	info, err := c.Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var events []PointEvent
	end, err := c.Watch(context.Background(), info.ID, func(ev PointEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if end.State != StateDone {
		t.Fatalf("end state = %q, want done (err %q)", end.State, end.Error)
	}
	if len(events) != 2 {
		t.Fatalf("streamed %d events, want 2 (poison point must not commit)", len(events))
	}
	for _, ev := range events {
		if ev.Point == 1 {
			t.Fatalf("quarantined point 1 appeared on the event stream: %+v", ev)
		}
	}
	if len(end.Quarantined) != 1 || end.Quarantined[0] != 1 {
		t.Fatalf("end event quarantined = %v, want [1]", end.Quarantined)
	}
	ji, err := c.Job(info.ID)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	if len(ji.Quarantined) != 1 || ji.Quarantined[0] != 1 {
		t.Fatalf("job info quarantined = %v, want [1]", ji.Quarantined)
	}
	report, err := c.Report(info.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if !strings.Contains(string(report), "quarantined points: 1 of 3") {
		t.Errorf("report missing the quarantine appendix:\n%s", report)
	}
	body := statsBody(t, ts.URL)
	for _, want := range []string{`"points_quarantined":1`, `"points_committed":2`} {
		if !strings.Contains(body, want) {
			t.Errorf("quarantine stats %s missing %s", body, want)
		}
	}
}

// TestFleetDrainRestartResumeInProcess drains a fleet-mode server
// mid-campaign and resumes the job on an in-process server over the
// same data directory: the job log a fleet writes point-by-point is
// the same file the in-process runner resumes from, so the hand-off is
// invisible — every point streams exactly once across the restart and
// the report matches an uninterrupted local run byte for byte.
func TestFleetDrainRestartResumeInProcess(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(fleetConfig(t, dir, 2, ""))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var backend atomic.Value
	backend.Store(s1.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := testClient(ts.URL)

	info, err := c.Submit("svc-wide.yaml", []byte(wideSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	type watchOut struct {
		end    *EndEvent
		events []PointEvent
		err    error
	}
	outc := make(chan watchOut, 1)
	firstEvent := make(chan struct{})
	var once atomic.Bool
	go func() {
		var out watchOut
		out.end, out.err = c.Watch(context.Background(), info.ID, func(ev PointEvent) {
			out.events = append(out.events, ev)
			if once.CompareAndSwap(false, true) {
				close(firstEvent)
			}
		})
		outc <- out
	}()
	select {
	case <-firstEvent:
	case <-time.After(30 * time.Second):
		t.Fatal("no point committed within 30s")
	}
	s1.Drain()
	st := s1.lookup(info.ID).snapshot()
	if st.State == StateDone {
		t.Skip("campaign finished before the drain landed; nothing mid-sweep to resume")
	}
	if st.State != StateInterrupted {
		t.Fatalf("post-drain state = %q, want interrupted", st.State)
	}
	if st.Committed == 0 || st.Committed >= st.Points {
		t.Fatalf("post-drain committed = %d of %d, want a strict mid-campaign cut", st.Committed, st.Points)
	}

	// Resume in-process: Workers unset, same data directory.
	s2, err := New(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Drain()
	backend.Store(s2.Handler())

	out := <-outc
	if out.err != nil {
		t.Fatalf("watch across restart: %v", out.err)
	}
	if out.end.State != StateDone {
		t.Fatalf("end state = %q, want done (err %q)", out.end.State, out.end.Error)
	}
	checkEventLog(t, "fleet-to-in-process resume", out.events, info.Points)
	got, err := c.Report(info.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if want := localReport(t, "svc-wide.yaml", wideSpec); string(got) != want {
		t.Errorf("resumed report diverged from the uninterrupted local run:\n--- service ---\n%s--- local ---\n%s", got, want)
	}
}

// TestFleetQuarantineDrainResume drains a fleet that has quarantined a
// poison point (1) but not settled (every worker reaching the last
// point stalls), then resumes the job on a fleet that quarantines point
// 1 again and on an in-process server. Points finished above point 1
// wait behind it, so the drained log holds at most point 0, a prefix
// the resume keeps. The resumed log must be in point order, with the
// poison point's line missing only if it was quarantined again; a
// watcher following the job across the restart must see each of its
// lines once, and every Last-Point offset must replay the rest.
func TestFleetQuarantineDrainResume(t *testing.T) {
	all := make([]int, 20) // wideSpec's points
	for i := range all {
		all[i] = i
	}
	for _, tc := range []struct {
		name   string
		resume func(t *testing.T, dir string) Config
		points []int // the resumed log's points, in order
	}{
		{"fleet", func(t *testing.T, dir string) Config { return fleetConfig(t, dir, 2, "crash@point=1") }, append([]int{0}, all[2:]...)},
		{"in-process", func(t *testing.T, dir string) Config { return Config{DataDir: dir, Logf: t.Logf} }, all},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := fleetConfig(t, dir, 2, "crash@point=1;stall@point=19")
			quarantined := make(chan struct{})
			var once sync.Once
			cfg.Logf = func(format string, args ...any) {
				t.Logf(format, args...)
				if strings.Contains(format, "quarantined after") {
					once.Do(func() { close(quarantined) })
				}
			}
			s1, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var backend atomic.Value
			backend.Store(s1.Handler())
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				backend.Load().(http.Handler).ServeHTTP(w, r)
			}))
			defer ts.Close()
			c := testClient(ts.URL)
			info, err := c.Submit("svc-wide.yaml", []byte(wideSpec))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			type watchOut struct {
				end    *EndEvent
				events []PointEvent
				err    error
			}
			outc := make(chan watchOut, 1)
			go func() {
				var out watchOut
				out.end, out.err = c.Watch(context.Background(), info.ID, func(ev PointEvent) { out.events = append(out.events, ev) })
				outc <- out
			}()
			select {
			case <-quarantined:
			case <-time.After(60 * time.Second):
				s1.Drain()
				t.Fatal("point 1 not quarantined within 60s")
			}
			s1.Drain()
			st := s1.lookup(info.ID).snapshot()
			if st.State != StateInterrupted {
				t.Fatalf("post-drain state = %q, want interrupted", st.State)
			}
			jobDir := filepath.Join(dir, "jobs", info.ID)
			if lines := logPoints(t, jobDir); len(lines) != st.Committed || len(lines) > 1 || (len(lines) == 1 && lines[0] != 0) {
				t.Fatalf("drained log holds points %v (%d committed), want the prefix of point 0 at most", lines, st.Committed)
			}

			s2, err := New(tc.resume(t, dir))
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer s2.Drain()
			backend.Store(s2.Handler())
			out := <-outc
			if out.err != nil {
				t.Fatalf("watch across restart: %v", out.err)
			}
			if out.end.State != StateDone {
				t.Fatalf("end state = %q, want done (err %q)", out.end.State, out.end.Error)
			}
			if got := logPoints(t, jobDir); !slices.Equal(got, tc.points) {
				t.Fatalf("resumed log holds points %v, want %v", got, tc.points)
			}
			var streamed []int
			for i, ev := range out.events {
				if ev.Seq != i {
					t.Fatalf("watched event %d has seq %d", i, ev.Seq)
				}
				streamed = append(streamed, ev.Point)
			}
			if !slices.Equal(streamed, tc.points) {
				t.Fatalf("watcher saw points %v across the restart, want %v", streamed, tc.points)
			}
			base := ts.URL + "/v1/campaigns/" + info.ID
			lines := bytes.SplitAfter(httpBody(t, base+"/events", ""), []byte{'\n'})
			lines = lines[:len(lines)-1] // the trailing empty split
			for k := 0; k <= len(tc.points); k++ {
				if got, rest := httpBody(t, base+"/events", strconv.Itoa(k)), bytes.Join(lines[k:], nil); !bytes.Equal(got, rest) {
					t.Fatalf("Last-Point: %d replayed\n%s\nwant\n%s", k, got, rest)
				}
			}
		})
	}
}

// logPoints returns the points a job log's lines name, checking that
// line k's seq is k.
func logPoints(t *testing.T, jobDir string) []int {
	t.Helper()
	var points []int
	for k, line := range bytes.SplitAfter(readFile(t, filepath.Join(jobDir, "events.ndjson")), []byte{'\n'}) {
		if len(line) == 0 {
			break
		}
		var ll logLine
		if err := json.Unmarshal(line, &ll); err != nil || ll.Seq != k {
			t.Fatalf("log line %d (%q): seq %d, err %v", k, line, ll.Seq, err)
		}
		points = append(points, ll.Point)
	}
	return points
}
