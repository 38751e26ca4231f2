package campaignd

// Tests of the job identity and the single resume path: job ids follow
// every point's full key, a job resumes the same way whichever executor
// finishes it, and a job directory in layout 1 or written for another
// sweep fails its job instead of the server.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tocttou/internal/fault"
	"tocttou/internal/metrics"
	"tocttou/internal/stats"
)

// policySpec is a one-point faulty vi/v1 campaign under a custom
// robustness policy. With retries 0 it fails all 40 rounds; with
// retries 4 it wins 39.
func policySpec(retries, backoffUS int) string {
	return fmt.Sprintf(`name: policy-key
machine: smp
rounds: 40
seed: 6007
seed_stride: 7121
victim: vi
attacker: v1
sizes_kb: [100]
policies:
  - name: custom
    retries: %d
    backoff_us: %d
fault_rates: [0.2]
faults:
  seed: 9973
  fs_scale: 1
  sem_intr_scale: 1
  kill_victim_scale: 0.5
  kill_attacker_scale: 0.5
  sem_intr_delay_us: 1
  kill_window_ms: 4
  restart: true
watchdog_ms: 5000
`, retries, backoffUS)
}

// submitAndWatch submits a spec and watches it to its end event.
func submitAndWatch(t *testing.T, c *Client, filename, spec string) (JobInfo, *EndEvent) {
	t.Helper()
	info, err := c.Submit(filename, []byte(spec))
	if err != nil {
		t.Fatalf("submit %s: %v", filename, err)
	}
	end, err := c.Watch(context.Background(), info.ID, func(PointEvent) {})
	if err != nil {
		t.Fatalf("watch %s: %v", info.ID, err)
	}
	return info, end
}

// TestJobIDSeparatesProgramParameters is the regression test for a job
// identity that named programs without their parameters: a spec edited
// only in a custom policy's retries or backoff is a new job, not a cache
// hit serving the old report.
func TestJobIDSeparatesProgramParameters(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	c := testClient(ts.URL)
	first, end := submitAndWatch(t, c, "policy.yaml", policySpec(0, 20))
	if end.State != StateDone {
		t.Fatalf("first job ended %q (%s)", end.State, end.Error)
	}
	firstReport, err := c.Report(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]string{
		"retries": policySpec(4, 20),
		"backoff": policySpec(0, 21),
	} {
		info, end := submitAndWatch(t, c, "policy.yaml", spec)
		if info.ID == first.ID || info.Cached {
			t.Errorf("%s: edited spec got job %s (cached %v), the unedited spec's id is %s", name, info.ID, info.Cached, first.ID)
			continue
		}
		if end.State != StateDone {
			t.Fatalf("%s: job ended %q (%s)", name, end.State, end.Error)
		}
		got, err := c.Report(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := localReport(t, "policy.yaml", spec); string(got) != want {
			t.Errorf("%s: report diverged from the local run:\n--- service ---\n%s--- local ---\n%s", name, got, want)
		}
		if name == "retries" && bytes.Equal(got, firstReport) {
			t.Errorf("retries 0 and 4 rendered the same report; the fixture no longer separates them")
		}
	}
}

// finishedJob runs spec to completion on an in-process server and
// returns the job's info and directory.
func finishedJob(t *testing.T, filename, spec string) (JobInfo, string) {
	t.Helper()
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	info, end := submitAndWatch(t, testClient(ts.URL), filename, spec)
	if end.State != StateDone {
		t.Fatalf("reference job ended %q (%s)", end.State, end.Error)
	}
	s.Drain()
	return info, filepath.Join(dir, "jobs", info.ID)
}

// stageInterrupted writes, under dataDir, the job directory a server
// killed mid-campaign leaves behind: the stored spec, state
// "interrupted", and the given job log.
func stageInterrupted(t *testing.T, info JobInfo, src, dataDir string, log []byte) {
	t.Helper()
	dst := filepath.Join(dataDir, "jobs", info.ID)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	spec, err := os.ReadFile(filepath.Join(src, "spec"))
	if err != nil {
		t.Fatal(err)
	}
	info.State, info.Committed, info.Cached = StateInterrupted, 0, false
	state, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"spec":          spec,
		"state.json":    state,
		"events.ndjson": log,
	} {
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeSameInProcessAndFleet resumes one interrupted job twice,
// in-process and over a two-worker fleet: both runs go through the same
// resume step, so they must stream the same points and render the same
// report.
func TestResumeSameInProcessAndFleet(t *testing.T) {
	info, src := finishedJob(t, "svc-small.yaml", smallSpec)
	// Keep the first committed point: the cut a crash after one commit
	// leaves.
	cut := cutLog(t, src, 1)

	type outcome struct {
		end      *EndEvent
		report   string
		streamed int
	}
	resume := func(cfg func(dir string) Config) outcome {
		dir := t.TempDir()
		stageInterrupted(t, info, src, dir, cut)
		s, err := New(cfg(dir))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer s.Drain()
		var out outcome
		j := s.lookup(info.ID)
		if j == nil {
			t.Fatalf("staged job %s not restored", info.ID)
		}
		s.wg.Wait() // the resumed job runs to its terminal state
		out.end = endEvent(t, j)
		out.streamed = j.snapshot().Committed
		report, err := os.ReadFile(j.reportPath())
		if err != nil {
			t.Fatalf("report: %v", err)
		}
		out.report = string(report)
		return out
	}
	inproc := resume(func(dir string) Config { return Config{DataDir: dir, Logf: t.Logf} })
	fleet := resume(func(dir string) Config { return fleetConfig(t, dir, 2, "") })

	want := localReport(t, "svc-small.yaml", smallSpec)
	for name, out := range map[string]outcome{"in-process": inproc, "fleet": fleet} {
		if out.end.State != StateDone {
			t.Fatalf("%s: resumed job ended %q (%s)", name, out.end.State, out.end.Error)
		}
		if out.streamed != info.Points {
			t.Errorf("%s: event log holds %d points, want %d", name, out.streamed, info.Points)
		}
		if out.report != want {
			t.Errorf("%s: resumed report diverged from the local run:\n%s", name, out.report)
		}
	}
}

// parentResult is a CampaignResult as builds before the one latency
// record wrote it: L, D, Window and WindowRounds sat between AttackErrors
// and SuspendedRounds, duplicating Metrics.LUs, .DUs, .WindowUs and
// .WindowUs.N().
type parentResult struct {
	Rounds, Successes, Detected, AttackErrors int
	L, D, Window                              stats.Summary
	WindowRounds, SuspendedRounds             int
	Metrics                                   metrics.Point
	Faults                                    fault.Counters
	VictimErrors                              int
}

// TestResumeRestoresParentLines restarts a server over an interrupted
// job whose log holds every point in the line layout older builds
// wrote, with the L, D, Window and WindowRounds members. Every point
// must restore and none re-run: the job ends done, its log is left as
// it is, and its report is byte-identical to the local run's.
func TestResumeRestoresParentLines(t *testing.T) {
	const spec = smallSpec + "trace: true\n"
	info, src := finishedJob(t, "svc-traced.yaml", spec)
	var old []byte
	withL := 0
	for _, line := range bytes.SplitAfter(cutLog(t, src, info.Points), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var l logLine
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatal(err)
		}
		r, m := l.Result, l.Result.Metrics
		if m.LUs.N() > 0 {
			withL++
		}
		enc, err := json.Marshal(struct {
			PointEvent
			Result parentResult `json:"result"`
		}{l.PointEvent, parentResult{
			r.Rounds, r.Successes, r.Detected, r.AttackErrors,
			m.LUs, m.DUs, m.WindowUs,
			int(m.WindowUs.N()), r.SuspendedRounds,
			m, r.Faults, r.VictimErrors,
		}})
		if err != nil {
			t.Fatal(err)
		}
		old = append(append(old, enc...), '\n')
	}
	if withL == 0 || !bytes.Contains(old, []byte(`"WindowRounds":30,`)) {
		t.Fatal("rewritten log carries no L or window observations")
	}

	dir := t.TempDir()
	stageInterrupted(t, info, src, dir, old)
	s, err := New(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Drain()
	j := s.lookup(info.ID)
	if j == nil {
		t.Fatalf("staged job %s not restored", info.ID)
	}
	s.wg.Wait()
	if end := endEvent(t, j); end.State != StateDone || end.Committed != info.Points {
		t.Fatalf("resumed job ended %q with %d of %d points (%s)", end.State, end.Committed, info.Points, end.Error)
	}
	if kept, err := os.ReadFile(filepath.Join(dir, "jobs", info.ID, "events.ndjson")); err != nil || !bytes.Equal(kept, old) {
		t.Errorf("resume changed the old log (err %v): a line was refused or a point re-ran", err)
	}
	report, err := os.ReadFile(j.reportPath())
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if want := localReport(t, "svc-traced.yaml", spec); string(report) != want {
		t.Errorf("report after resuming from old lines diverged from the local run:\n%s", report)
	}
}

// TestResumeRefusesLogOfOtherSweep restarts a server over an interrupted
// job whose id is not the one its stored spec compiles to — what a build
// that changes a point's key sees in a job directory an older build
// wrote. The log must not be merged: the job fails with the
// different-sweep message, its log is left as it is, and the server
// keeps serving.
func TestResumeRefusesLogOfOtherSweep(t *testing.T) {
	info, src := finishedJob(t, "svc-small.yaml", smallSpec)
	log := cutLog(t, src, 2)
	info.ID = "0123456789abcdef"
	dir := t.TempDir()
	stageInterrupted(t, info, src, dir, log)
	s, ts := newTestServer(t, dir)
	s.wg.Wait()
	c := testClient(ts.URL)
	got, err := c.Job(info.ID)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	if got.State != StateFailed || got.Error != errOtherSweep.Error() {
		t.Fatalf("job of another sweep: state %q, error %q; want failed with %q", got.State, got.Error, errOtherSweep)
	}
	if stored := readState(t, s.lookup(info.ID)); stored.State != StateFailed {
		t.Errorf("state.json: %q, want failed", stored.State)
	}
	if kept, err := os.ReadFile(filepath.Join(dir, "jobs", info.ID, "events.ndjson")); err != nil || !bytes.Equal(kept, log) {
		t.Errorf("log of another sweep changed (err %v)", err)
	}
	if _, end := submitAndWatch(t, c, "policy.yaml", policySpec(4, 20)); end.State != StateDone {
		t.Errorf("server stopped serving after the refused resume: new job ended %q (%s)", end.State, end.Error)
	}
}

// readState decodes a job's persisted state.json.
func readState(t *testing.T, j *job) JobInfo {
	t.Helper()
	data, err := os.ReadFile(j.statePath())
	if err != nil {
		t.Fatal(err)
	}
	var info JobInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// endEvent decodes the end event a stream of the job would close with.
func endEvent(t *testing.T, j *job) *EndEvent {
	t.Helper()
	j.mu.Lock()
	data := j.endEventLocked()
	j.mu.Unlock()
	var ev EndEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	return &ev
}

// TestPreKeyCheckpointFailsJob restarts a server over jobs left
// interrupted in layout 1: results in a checkpoint.json (here one from
// before point keys) beside the event log, or a log of bare point
// events. Each job must fail with the layout's version message — and
// the server must keep serving. A finished job in layout 1 is still
// served from its files, its bare event lines as they are.
func TestPreKeyCheckpointFailsJob(t *testing.T) {
	info, src := finishedJob(t, "svc-small.yaml", smallSpec)
	var bare bytes.Buffer
	for _, ev := range readEventLog(t, &job{dir: src}) {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		bare.Write(append(line, '\n'))
	}
	v2 := fmt.Appendf(nil, "{\"version\":2,\"fingerprint\":1,\"points\":%d}\n", info.Points)
	stage := func(t *testing.T, log []byte, files map[string][]byte) string {
		dir := t.TempDir()
		stageInterrupted(t, info, src, dir, log)
		for file, data := range files {
			if err := os.WriteFile(filepath.Join(dir, "jobs", info.ID, file), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for name, dir := range map[string]string{
		"checkpoint": stage(t, nil, map[string][]byte{"checkpoint.json": v2}),
		"bare-log":   stage(t, bare.Bytes(), nil),
	} {
		t.Run(name, func(t *testing.T) {
			s, ts := newTestServer(t, dir)
			s.wg.Wait()
			c := testClient(ts.URL)
			got, err := c.Job(info.ID)
			if err != nil {
				t.Fatalf("job: %v", err)
			}
			if got.State != StateFailed || got.Error != errLayout1.Error() {
				t.Fatalf("job in layout 1: state %q, error %q; want failed with %q", got.State, got.Error, errLayout1)
			}
			if stored := readState(t, s.lookup(info.ID)); stored.State != StateFailed {
				t.Errorf("state.json: %q, want failed", stored.State)
			}
			if _, end := submitAndWatch(t, c, "policy.yaml", policySpec(4, 20)); end.State != StateDone {
				t.Errorf("server stopped serving after the failed resume: new job ended %q (%s)", end.State, end.Error)
			}
		})
	}

	done := info
	done.State, done.Committed = StateDone, info.Points
	state, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(src, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, stage(t, bare.Bytes(), map[string][]byte{"checkpoint.json": v2, "state.json": state, "report.txt": report}))
	base := ts.URL + "/v1/campaigns/" + info.ID
	j := s.lookup(info.ID)
	j.mu.Lock()
	want := bare.String() + string(j.endEventLocked()) + "\n"
	j.mu.Unlock()
	if got := string(httpBody(t, base+"/events", "0")); got != want {
		t.Errorf("finished layout-1 job replayed\n%s\nwant\n%s", got, want)
	}
	if got := httpBody(t, base+"/report", ""); !bytes.Equal(got, report) {
		t.Errorf("finished layout-1 job served report\n%s", got)
	}
}
