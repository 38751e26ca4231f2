package campaignd

// A finished job keeps only what it serves. These tests pin that every
// terminal transition — and a restart over a data directory of finished
// jobs, even one whose spec file is gone — drops the job's spec, compiled
// grid and point index, while the cache hit, the event replay and the
// report, all read from the job's files, stay byte-identical.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
)

// httpBody GETs url with an optional Last-Point header and returns the
// body of a 200 response.
func httpBody(t *testing.T, url, lastPoint string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastPoint != "" {
		req.Header.Set("Last-Point", lastPoint)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v: %s", url, resp.StatusCode, err, body)
	}
	return body
}

// checkReleased asserts a job holds no grid or spec.
func checkReleased(t *testing.T, label string, j *job) {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.compiled != nil || j.spec != nil {
		t.Errorf("%s: job still holds compiled=%v spec=%v", label, j.compiled != nil, j.spec != nil)
	}
}

// checkServesFinished asserts a done job's served bytes: the report is
// the local run's, a Last-Point: 0 replay is the log's point events
// plus the end line, and a resubmission is a cache hit on the same job.
func checkServesFinished(t *testing.T, label, url string, j *job) {
	t.Helper()
	c := testClient(url)
	if got, want := string(httpBody(t, url+"/v1/campaigns/"+j.id+"/report", "")), localReport(t, "svc-small.yaml", smallSpec); got != want {
		t.Errorf("%s: report diverged from the local run:\n--- service ---\n%s--- local ---\n%s", label, got, want)
	}
	var want bytes.Buffer
	for _, ev := range readEventLog(t, j) {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(line, '\n'))
	}
	j.mu.Lock()
	want.Write(append(j.endEventLocked(), '\n'))
	j.mu.Unlock()
	if got := string(httpBody(t, url+"/v1/campaigns/"+j.id+"/events", "0")); got != want.String() {
		t.Errorf("%s: Last-Point: 0 replay diverged:\ngot:\n%s\nwant:\n%s", label, got, want.String())
	}
	again, err := c.Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("%s: resubmit: %v", label, err)
	}
	info := j.snapshot()
	info.Cached = true
	gotJSON, _ := json.Marshal(again)
	wantJSON, _ := json.Marshal(info)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("%s: cache hit = %s, want %s", label, gotJSON, wantJSON)
	}
}

func TestFinishedJobReleasesGrid(t *testing.T) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"in-process", 0}, {"workers=2", 2}} {
		t.Run(mode.name, func(t *testing.T) {
			var s *Server
			var ts *httptest.Server
			if mode.workers > 0 {
				s, ts = newFleetServer(t, t.TempDir(), mode.workers, "")
			} else {
				s, ts = newTestServer(t, t.TempDir())
			}
			info, err := testClient(ts.URL).Submit("svc-small.yaml", []byte(smallSpec))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			end, err := testClient(ts.URL).Watch(context.Background(), info.ID, nil)
			if err != nil || end.State != StateDone {
				t.Fatalf("watch: end %+v, err %v", end, err)
			}
			j := s.lookup(info.ID)
			checkReleased(t, "done", j)
			checkServesFinished(t, "done", ts.URL, j)

			// A publish arriving after the terminal transition is refused.
			if appended, err := j.commitPoints(4); err == nil || appended != 0 {
				t.Errorf("commitPoints on a done job = %v, %v; want an error", appended, err)
			}
			if got := j.snapshot().Committed; got != 3 {
				t.Errorf("committed = %d after a refused commit, want 3", got)
			}
		})
	}
}

func TestRestartServesDoneJobsWithoutGrids(t *testing.T) {
	for _, dropSpec := range []bool{false, true} {
		name := "with-spec"
		if dropSpec {
			name = "spec-deleted"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := newTestServer(t, dir)
			info, err := testClient(ts1.URL).Submit("svc-small.yaml", []byte(smallSpec))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if end, err := testClient(ts1.URL).Watch(context.Background(), info.ID, nil); err != nil || end.State != StateDone {
				t.Fatalf("watch: end %+v, err %v", end, err)
			}
			// Every resumable offset's replay, as the server that ran the
			// job serves it.
			replays := make([]string, info.Points+1)
			for k := range replays {
				replays[k] = string(httpBody(t, ts1.URL+"/v1/campaigns/"+info.ID+"/events", strconv.Itoa(k)))
			}
			report := string(httpBody(t, ts1.URL+"/v1/campaigns/"+info.ID+"/report", ""))
			s1.Drain()
			if dropSpec {
				// A finished job is its state, event log and report: a
				// restart must not need the spec it ran.
				if err := os.Remove(s1.lookup(info.ID).specPath()); err != nil {
					t.Fatal(err)
				}
			}

			s2, ts2 := newTestServer(t, dir)
			j := s2.lookup(info.ID)
			if j == nil {
				t.Fatalf("restarted server lost job %s", info.ID)
			}
			if st := j.snapshot().State; st != StateDone {
				t.Fatalf("restored state = %q, want done", st)
			}
			checkReleased(t, "restored", j)
			checkServesFinished(t, "restored", ts2.URL, j)
			for k, want := range replays {
				if got := string(httpBody(t, ts2.URL+"/v1/campaigns/"+info.ID+"/events", strconv.Itoa(k))); got != want {
					t.Errorf("Last-Point: %d replay changed across the restart:\ngot:\n%s\nwant:\n%s", k, got, want)
				}
			}
			if got := string(httpBody(t, ts2.URL+"/v1/campaigns/"+info.ID+"/report", "")); got != report {
				t.Errorf("report changed across the restart")
			}
		})
	}
}
