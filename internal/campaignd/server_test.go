package campaignd

// Service-level tests for the campaign server: the job lifecycle over
// the HTTP API, the spec-error round-trip contract (a 400 body is the
// exact file/line-accurate message a local -scenario run prints), the
// drain → restart → resume path, and watch reconnection with Last-Point
// across both dropped connections and a server restart.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

// smallSpec finishes in milliseconds; used for lifecycle tests.
const smallSpec = `name: svc-small
machine: up
rounds: 30
seed: 4242
victim: vi
attacker: v1
sizes_kb: [100, 200, 300]
`

// wideSpec compiles to 20 points — enough grid for a drain to land
// mid-campaign with points still unfinished.
const wideSpec = `name: svc-wide
machine: smp2
rounds: 300
seed: 9091
victim: vi
attacker: v1
sizes_kb:
  from: 100
  to: 2000
  step: 100
`

func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

func testClient(url string) *Client {
	return &Client{Server: url, RetryDelay: 5 * time.Millisecond, MaxRetries: 2000}
}

// localReport runs the scenario in-process — the reference the service
// must reproduce byte-identically.
func localReport(t *testing.T, filename, src string) string {
	t.Helper()
	spec, err := scenario.LoadBytes(filename, []byte(src))
	if err != nil {
		t.Fatalf("reference spec: %v", err)
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	results, stats, err := core.RunSweepPoints(compiled.Points, core.SweepOptions{})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	out := &scenario.Outcome{Spec: spec, Compiled: compiled, Results: results, Stats: stats}
	var buf strings.Builder
	if err := out.Render(&buf); err != nil {
		t.Fatalf("reference render: %v", err)
	}
	return buf.String()
}

// checkEventLog asserts a watched event sequence of a job with no
// quarantined point is gapless, duplicate-free and in point order: event
// i has seq i and is point i's.
func checkEventLog(t *testing.T, label string, events []PointEvent, points int) {
	t.Helper()
	if len(events) != points {
		t.Fatalf("%s: streamed %d events, want %d", label, len(events), points)
	}
	for i, ev := range events {
		if ev.Seq != i || ev.Point != i {
			t.Fatalf("%s: event %d has seq %d and point %d, want %d for both", label, i, ev.Seq, ev.Point, i)
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := testClient(ts.URL)

	info, err := c.Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if info.State != StateQueued && info.State != StateRunning && info.State != StateDone {
		t.Fatalf("fresh submit state = %q", info.State)
	}
	if info.Cached {
		t.Fatal("fresh submit marked cached")
	}
	if info.Points != 3 {
		t.Fatalf("points = %d, want 3", info.Points)
	}

	var events []PointEvent
	end, err := c.Watch(context.Background(), info.ID, func(ev PointEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if end.State != StateDone {
		t.Fatalf("end state = %q, want done (err %q)", end.State, end.Error)
	}
	checkEventLog(t, "lifecycle", events, 3)

	got, err := c.Report(info.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if want := localReport(t, "svc-small.yaml", smallSpec); string(got) != want {
		t.Errorf("service report diverged from the local run:\n--- service ---\n%s--- local ---\n%s", got, want)
	}

	// Identical re-submission: a cache hit from the completed store.
	again, err := c.Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.ID != info.ID {
		t.Fatalf("resubmit id = %s, want %s (job identity must be content-derived)", again.ID, info.ID)
	}
	if !again.Cached || again.State != StateDone {
		t.Fatalf("resubmit state=%q cached=%v, want done/cached", again.State, again.Cached)
	}

	jobs, err := c.Jobs()
	if err != nil {
		t.Fatalf("jobs: %v", err)
	}
	if len(jobs) != 1 {
		t.Fatalf("job list has %d entries, want 1 (idempotent submit)", len(jobs))
	}
}

func TestUnknownCampaignIs404(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	for _, path := range []string{
		"/v1/campaigns/deadbeefdeadbeef",
		"/v1/campaigns/deadbeefdeadbeef/events",
		"/v1/campaigns/deadbeefdeadbeef/report",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestDrainRefusesNewCampaigns(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	s.Drain()
	c := testClient(ts.URL)
	if _, err := c.Submit("svc-small.yaml", []byte(smallSpec)); err == nil {
		t.Fatal("submit during drain succeeded, want 503")
	} else if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("drain refusal = %q, want a draining message", err)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := copyBody(&buf, resp); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if !strings.Contains(buf.String(), "draining") {
		t.Errorf("healthz during drain = %s, want draining status", buf.String())
	}
}

// TestSpecErrorRoundTrip is the satellite bugfix's regression table: a
// malformed spec's 400 body must equal, byte for byte, the message a
// local `tocttou -scenario` run prints for the same file — same path,
// same line numbers, same wording.
func TestSpecErrorRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := testClient(ts.URL)
	const filename = "broken.yaml"
	cases := []struct {
		name string
		src  string
	}{
		{"unknown key", smallSpec + "frobnicate: 1\n"},
		{"out-of-range rate", smallSpec + "faults:\n  seed: 1\n  fs_rate: 2\n"},
		{"duplicate name",
			"name: x\nmachine: up\nrounds: 2\nseed: 1\nfleet:\n  total: 10\n  jitter_seed: 1\n  templates:\n" +
				"    - name: a\n      weight: 1\n      victim: vi\n      attacker: v1\n      size_kb: 20\n" +
				"    - name: a\n      weight: 2\n      victim: gedit\n      attacker: v2\n      size_kb: 20\n"},
		{"inconsistent assertion", smallSpec + "assertions:\n  - metric: success_rate\n    min: 0.9\n    max: 0.1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, lerr := scenario.LoadBytes(filename, []byte(tc.src))
			if lerr == nil {
				t.Fatal("test case is not actually malformed")
			}
			_, serr := c.Submit(filename, []byte(tc.src))
			if serr == nil {
				t.Fatal("server accepted a malformed spec")
			}
			if serr.Error() != lerr.Error() {
				t.Errorf("server error diverged from the local one:\nserver: %s\nlocal:  %s", serr, lerr)
			}
		})
	}
}

// TestSubmitRejectsUnboundedGrid pins that a short spec demanding an
// unbounded grid (a sizes_kb range whose step wraps int64) is refused
// with HTTP 400 and the message a local run prints, instead of taking
// the daemon down while the grid is built.
func TestSubmitRejectsUnboundedGrid(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	const filename = "wrap.yaml"
	src := strings.Replace(smallSpec, "sizes_kb: [100, 200, 300]",
		"sizes_kb: {from: 1, to: 9223372036854775807, step: 4611686018427387904}", 1)
	_, lerr := scenario.LoadBytes(filename, []byte(src))
	if lerr == nil {
		t.Fatal("test spec is not actually rejected locally")
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns?filename="+filename, "application/x-yaml", strings.NewReader(src))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %q)", resp.StatusCode, body)
	}
	if got := strings.TrimSuffix(string(body), "\n"); got != lerr.Error() {
		t.Errorf("400 body diverged from the local error:\nserver: %s\nlocal:  %s", got, lerr)
	}
}

// TestStreamResumesFromLastPoint replays a finished job's log from an
// offset and checks the suffix is exact: no duplicates, no drops.
func TestStreamResumesFromLastPoint(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := testClient(ts.URL)
	info, err := c.Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Watch(context.Background(), info.ID, nil); err != nil {
		t.Fatalf("watch: %v", err)
	}
	for offset := 0; offset <= 3; offset++ {
		last := offset
		var events []PointEvent
		end, err := c.Stream(context.Background(), info.ID, &last, func(ev PointEvent) { events = append(events, ev) })
		if err != nil {
			t.Fatalf("stream from %d: %v", offset, err)
		}
		if end == nil || end.State != StateDone {
			t.Fatalf("stream from %d: end = %+v", offset, end)
		}
		if len(events) != 3-offset {
			t.Fatalf("stream from %d delivered %d events, want %d", offset, len(events), 3-offset)
		}
		for i, ev := range events {
			if ev.Seq != offset+i {
				t.Fatalf("stream from %d: event %d has seq %d, want %d", offset, i, ev.Seq, offset+i)
			}
		}
	}
}

// TestDrainRestartResumeWatch is the end-to-end durability contract in
// one test: a draining server interrupts a campaign mid-sweep; a new
// server over the same data directory resumes it from its job log; a
// Watch that spans the hand-off — carrying only its Last-Point offset —
// delivers every point exactly once; and the final report is
// byte-identical to an uninterrupted local run.
func TestDrainRestartResumeWatch(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The proxy keeps one stable URL while the backing server is swapped,
	// standing in for a service restarting behind its address.
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
	checkEventLog(t, "watch across restart", out.events, info.Points)

	got, err := c.Report(info.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if want := localReport(t, "svc-wide.yaml", wideSpec); string(got) != want {
		t.Errorf("resumed report diverged from the uninterrupted local run:\n--- service ---\n%s--- local ---\n%s", got, want)
	}

	// The restarted store also serves cache hits for the resumed job.
	again, err := c.Submit("svc-wide.yaml", []byte(wideSpec))
	if err != nil {
		t.Fatalf("resubmit after restart: %v", err)
	}
	if !again.Cached {
		t.Error("resubmit after restart not served from the completed store")
	}
}

// TestTornEventLogRecovers simulates a kill -9 landing between an event
// log append and its fsync: the torn final line is truncated on load and
// its point re-runs, so offsets stay valid.
func TestTornEventLogRecovers(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s1.Handler())
	c := testClient(ts.URL)
	info, err := c.Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Watch(context.Background(), info.ID, nil); err != nil {
		t.Fatalf("watch: %v", err)
	}
	s1.Drain()
	ts.Close()

	// Tear the log: truncate mid-way through the final line, and force the
	// state back to running as a crash would leave it.
	j := s1.lookup(info.ID)
	tearEventLog(t, j)

	s2, err := New(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("restart over torn log: %v", err)
	}
	defer s2.Drain()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := testClient(ts2.URL)
	var events []PointEvent
	end, err := c2.Watch(context.Background(), info.ID, func(ev PointEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("watch resumed job: %v", err)
	}
	if end.State != StateDone {
		t.Fatalf("end state = %q, want done", end.State)
	}
	checkEventLog(t, "torn log recovery", events, 3)
	got, err := c2.Report(info.ID)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if want := localReport(t, "svc-small.yaml", smallSpec); string(got) != want {
		t.Errorf("report after torn-log recovery diverged from the local run")
	}
}

// TestTornEventLogSurvivesSecondRestart pins that recovering a torn log
// repairs the file, not just the stream: the resumed run's re-emitted
// point must start on a fresh line, so a second restart still restores
// every event of the finished job and every line of the log parses.
func TestTornEventLogSurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, dir)
	info, err := testClient(ts1.URL).Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := testClient(ts1.URL).Watch(context.Background(), info.ID, nil); err != nil {
		t.Fatalf("watch: %v", err)
	}
	s1.Drain()
	tearEventLog(t, s1.lookup(info.ID))

	s2, ts2 := newTestServer(t, dir)
	if end, err := testClient(ts2.URL).Watch(context.Background(), info.ID, nil); err != nil || end.State != StateDone {
		t.Fatalf("watch resumed job: end %+v, err %v", end, err)
	}
	s2.Drain()
	data, err := os.ReadFile(s2.lookup(info.ID).eventsPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if last := lines[len(lines)-1]; last != "" {
		t.Fatalf("event log ends without a newline: %q", last)
	}
	lines = lines[:len(lines)-1]
	for i, line := range lines {
		var ev PointEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Type != "point" || ev.Seq != i {
			t.Errorf("event log line %d is not point event %d (err %v): %q", i, i, err, line)
		}
	}
	if len(lines) != 3 {
		t.Errorf("event log holds %d lines, want 3", len(lines))
	}

	_, ts3 := newTestServer(t, dir)
	var events []PointEvent
	end, err := testClient(ts3.URL).Watch(context.Background(), info.ID, func(ev PointEvent) { events = append(events, ev) })
	if err != nil || end.State != StateDone {
		t.Fatalf("watch after second restart: end %+v, err %v", end, err)
	}
	checkEventLog(t, "second restart", events, 3)
	if end.Committed != 3 {
		t.Errorf("end.committed = %d after second restart, want 3", end.Committed)
	}
}

func TestStatsCountsJobsAndPoints(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := testClient(ts.URL)
	info, err := c.Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Watch(context.Background(), info.ID, nil); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if _, err := c.Submit("svc-small.yaml", []byte(smallSpec)); err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := copyBody(&buf, resp); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	body := buf.String()
	for _, want := range []string{`"done":1`, `"points_committed":3`, `"memo_hits":1`} {
		if !strings.Contains(body, want) {
			t.Errorf("stats %s missing %s", body, want)
		}
	}
}

// TestFailedSubmitLeavesNoDanglingJob fails a submit's persist step
// after a second submit has registered behind it. A FIFO at the first
// job's spec path holds its persist until the second job is listed, and
// a directory at its state.json path makes the rename into place fail.
// The failed job must leave the listing whole: 200 with the second job
// only.
func TestFailedSubmitLeavesNoDanglingJob(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	specA := tinySpec(601)
	spec, err := scenario.LoadBytes("a.yaml", []byte(specA))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(dir, "jobs", jobKey(spec, compiled))
	if err := os.MkdirAll(filepath.Join(jobDir, "state.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(jobDir, "spec")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Fatal(err)
	}
	statusA := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/campaigns?filename=a.yaml", "application/x-yaml", strings.NewReader(specA))
		if err != nil {
			statusA <- 0
			return
		}
		resp.Body.Close()
		statusA <- resp.StatusCode
	}()
	cl := testClient(ts.URL)
	for s.lookup(jobKey(spec, compiled)) == nil {
		time.Sleep(time.Millisecond)
	}
	b, err := cl.Submit("b.yaml", []byte(tinySpec(602)))
	if err != nil {
		t.Fatal(err)
	}
	// Release the first submit's spec write; its state.json rename fails.
	r, err := os.Open(fifo)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r)
	r.Close()
	if got := <-statusA; got != http.StatusInternalServerError {
		t.Fatalf("first submit: status %d, want 500", got)
	}
	jobs, err := cl.Jobs()
	if err != nil {
		t.Fatalf("listing after a failed submit: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != b.ID {
		t.Fatalf("listing holds %+v, want the second job %s only", jobs, b.ID)
	}
}
