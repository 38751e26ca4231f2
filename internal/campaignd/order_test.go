package campaignd

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"tocttou/internal/scenario"
)

// TestJobLogSameBytesEverywhere pins that a job's log and stream are a
// function of its spec and build alone, not of the schedule that ran
// it. fleet.yaml's 600 points and faultsweep run through campaignd:
// each job's events.ndjson and its streamed bytes must be the same at
// GOMAXPROCS 1, 2 and 4, over a two-worker fleet, and after a drain
// mid-run and a resume on a new server. The CLI's -checkpoint file
// (scenario.Run with a checkpoint) must be the same at GOMAXPROCS 1, 2
// and 4 too.
func TestJobLogSameBytesEverywhere(t *testing.T) {
	for _, tc := range []struct {
		name, filename, spec string
	}{
		{"fleet", "fleet.yaml", shippedSpec(t, "fleet.yaml", nil)},
		{"faultsweep", "faultsweep.yaml", shippedSpec(t, "faultsweep.yaml", nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var refLog, refStream, refCkpt []byte
			same := func(label string, log, stream []byte) {
				t.Helper()
				if refLog == nil {
					refLog, refStream = log, stream
					return
				}
				if !bytes.Equal(log, refLog) {
					t.Errorf("%s: events.ndjson differs from the first run's", label)
				}
				if !bytes.Equal(stream, refStream) {
					t.Errorf("%s: streamed bytes differ from the first run's", label)
				}
			}
			for _, procs := range []int{1, 2, 4} {
				prev := runtime.GOMAXPROCS(procs)
				dir := t.TempDir()
				_, ts := newTestServer(t, dir)
				log, stream := jobBytes(t, dir, ts, tc.filename, tc.spec)
				ckpt := checkpointBytes(t, tc.filename, tc.spec)
				runtime.GOMAXPROCS(prev)
				same(fmt.Sprintf("GOMAXPROCS=%d", procs), log, stream)
				if refCkpt == nil {
					refCkpt = ckpt
				} else if !bytes.Equal(ckpt, refCkpt) {
					t.Errorf("GOMAXPROCS=%d: checkpoint file differs from GOMAXPROCS=1's", procs)
				}
			}
			dir := t.TempDir()
			_, ts := newFleetServer(t, dir, 2, "")
			log, stream := jobBytes(t, dir, ts, tc.filename, tc.spec)
			same("workers=2", log, stream)

			dir = t.TempDir()
			s1, err := New(Config{DataDir: dir, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(s1.Handler())
			info, err := testClient(ts1.URL).Submit(tc.filename, []byte(tc.spec))
			ts1.Close()
			if err != nil {
				t.Fatal(err)
			}
			// Drain once a point is committed. Stop waiting if the job
			// ends first, or after a minute; jobBytes reports the end.
			for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if st := s1.lookup(info.ID).snapshot(); st.Committed > 0 || terminalState(st.State) {
					break
				}
			}
			s1.Drain()
			t.Logf("drained with %d of %d points committed", s1.lookup(info.ID).snapshot().Committed, info.Points)
			_, ts2 := newTestServer(t, dir)
			log, stream = jobBytes(t, dir, ts2, tc.filename, tc.spec)
			same("drained and resumed", log, stream)
		})
	}
}

// jobBytes submits spec to the server at ts, whose data directory is
// dir, waits for the job to end done, and returns its events.ndjson and
// the bytes its event stream sends. A resubmission of a job the server
// already holds waits for that job.
func jobBytes(t *testing.T, dir string, ts *httptest.Server, filename, spec string) (log, stream []byte) {
	t.Helper()
	info, end := submitAndWatch(t, testClient(ts.URL), filename, spec)
	if end.State != StateDone {
		t.Fatalf("job ended %q (%s)", end.State, end.Error)
	}
	return readFile(t, filepath.Join(dir, "jobs", info.ID, "events.ndjson")),
		httpBody(t, ts.URL+"/v1/campaigns/"+info.ID+"/events", "")
}

// checkpointBytes runs spec locally with a fresh checkpoint file, as
// `tocttou -scenario -checkpoint` does, and returns the file.
func checkpointBytes(t *testing.T, filename, spec string) []byte {
	t.Helper()
	s, err := scenario.LoadBytes(filename, []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := scenario.Run(s, scenario.RunOptions{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
