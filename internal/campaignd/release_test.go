package campaignd

// A finished job keeps only what it serves. These tests pin that every
// terminal transition — and a restart over a data directory of finished
// jobs — drops the job's spec, compiled grid and point index, while the
// cache hit, the event replay and the report stay byte-identical.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"tocttou/internal/core"
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

// checkReleased asserts a job holds no grid, spec or point index.
func checkReleased(t *testing.T, label string, j *job) {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.compiled != nil || j.spec != nil || j.seen != nil {
		t.Errorf("%s: job still holds compiled=%v spec=%v seen=%v", label, j.compiled != nil, j.spec != nil, j.seen != nil)
	}
}

// checkServesFinished asserts a done job's served bytes: the report is
// the local run's, a Last-Point: 0 replay is the event log plus the end
// line, and a resubmission is a cache hit on the same job.
func checkServesFinished(t *testing.T, label, url string, j *job) {
	t.Helper()
	c := testClient(url)
	if got, want := string(httpBody(t, url+"/v1/campaigns/"+j.id+"/report", "")), localReport(t, "svc-small.yaml", smallSpec); got != want {
		t.Errorf("%s: report diverged from the local run:\n--- service ---\n%s--- local ---\n%s", label, got, want)
	}
	elog, err := os.ReadFile(j.eventsPath())
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	end := j.endEventLocked()
	j.mu.Unlock()
	want := string(elog) + string(end) + "\n"
	if got := string(httpBody(t, url+"/v1/campaigns/"+j.id+"/events", "0")); got != want {
		t.Errorf("%s: Last-Point: 0 replay diverged:\ngot:\n%s\nwant:\n%s", label, got, want)
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

			// A completion arriving after the terminal transition is refused,
			// not written into the released index.
			if appended, err := j.commitPoint(0, core.CampaignResult{}); err == nil || appended {
				t.Errorf("commitPoint on a done job = %v, %v; want an error", appended, err)
			}
			if got := j.snapshot().Committed; got != 3 {
				t.Errorf("committed = %d after a refused commit, want 3", got)
			}
		})
	}
}

func TestRestartServesDoneJobsWithoutGrids(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, dir)
	info, err := testClient(ts1.URL).Submit("svc-small.yaml", []byte(smallSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if end, err := testClient(ts1.URL).Watch(context.Background(), info.ID, nil); err != nil || end.State != StateDone {
		t.Fatalf("watch: end %+v, err %v", end, err)
	}
	s1.Drain()

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
}
