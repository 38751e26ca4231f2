package campaignd

// Crash-state enumeration for the job log. A recorded campaign's every
// Write and Sync on events.ndjson fixes what a crash could leave: the
// bytes durable at a sync point, plus any prefix of the one write not
// yet synced. The cases are fixed up front — for the write after each
// sync point, a cut at every line boundary, one byte into every line,
// and the whole write — and a restarted server must resume each state
// to the local run's report, stream every point exactly once, and
// replay the exact remaining points from every offset it kept.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tocttou/internal/linelog"
	"tocttou/internal/scenario"
)

// logOp is one call on a recorded job log: a write's bytes, or a sync.
type logOp struct {
	data []byte
	sync bool
}

// recordingLog passes every call through to the file and records it.
type recordingLog struct {
	f   linelog.File
	mu  *sync.Mutex
	ops *[]logOp
}

func (l recordingLog) Write(b []byte) (int, error) {
	l.mu.Lock()
	*l.ops = append(*l.ops, logOp{data: bytes.Clone(b)})
	l.mu.Unlock()
	return l.f.Write(b)
}

func (l recordingLog) Sync() error {
	l.mu.Lock()
	*l.ops = append(*l.ops, logOp{sync: true})
	l.mu.Unlock()
	return l.f.Sync()
}

func (l recordingLog) Close() error { return l.f.Close() }

// recordCampaign runs spec to completion on an in-process server whose
// job logs record every call made through the log seam
// (linelog.OpenFile), and returns the job's info, its directory and the
// calls.
func recordCampaign(t *testing.T, filename, spec string) (JobInfo, string, []logOp) {
	t.Helper()
	var mu sync.Mutex
	var ops []logOp
	orig := linelog.OpenFile
	linelog.OpenFile = func(path string) (linelog.File, error) {
		f, err := orig(path)
		if err != nil {
			return nil, err
		}
		return recordingLog{f: f, mu: &mu, ops: &ops}, nil
	}
	defer func() { linelog.OpenFile = orig }()
	info, dir := finishedJob(t, filename, spec)
	mu.Lock()
	defer mu.Unlock()
	return info, dir, ops
}

// crashStates enumerates the log contents a crash can leave: for each
// sync point, the bytes durable there plus a cut of the next write at
// every line boundary, one byte into every line, and the whole write.
// Equal contents are listed once. synced[i] is state i's durable line
// count.
func crashStates(ops []logOp) (states [][]byte, synced []int) {
	seen := make(map[string]bool)
	var durable, pending []byte
	add := func(cut int) {
		state := append(bytes.Clone(durable), pending[:cut]...)
		if !seen[string(state)] {
			seen[string(state)] = true
			states = append(states, state)
			synced = append(synced, bytes.Count(durable, []byte{'\n'}))
		}
	}
	for _, op := range ops {
		if op.sync {
			durable, pending = append(durable, pending...), nil
			continue
		}
		pending = append(pending, op.data...)
		start := len(pending) - len(op.data)
		add(start)
		for at := start; at < len(pending); {
			end := at + bytes.IndexByte(pending[at:], '\n') + 1
			add(at + 1)
			add(end)
			at = end
		}
	}
	return states, synced
}

// localRun renders spec through scenario.Run, the local reference.
func localRun(t *testing.T, filename, spec string) string {
	t.Helper()
	s, err := scenario.LoadBytes(filename, []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	out, err := scenario.Run(s, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := out.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// shippedSpec is a shipped scenario file without its assertions and
// with each from line, which must be present, replaced by its to line.
func shippedSpec(t *testing.T, name string, repl map[string]string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	spec, _, _ := strings.Cut(string(data), "\nassertions:")
	for from, to := range repl {
		if !strings.Contains(spec, from) {
			t.Fatalf("%s no longer holds %q", name, from)
		}
		spec = strings.Replace(spec, from, to, 1)
	}
	return spec + "\n"
}

func TestJobLogCrashStates(t *testing.T) {
	for _, tc := range []struct {
		name, filename, spec string
	}{
		// fig6's grid at a 4-round budget.
		{"fig6", "fig6.yaml", shippedSpec(t, "fig6.yaml", map[string]string{"\nrounds: 500\n": "\nrounds: 4\n"})},
		// fleet.yaml's templates and faults over 16 members of 2 rounds.
		{"fleet", "fleet.yaml", shippedSpec(t, "fleet.yaml", map[string]string{"\nrounds: 3\n": "\nrounds: 2\n", "\n  total: 600\n": "\n  total: 16\n"})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			info, src, ops := recordCampaign(t, tc.filename, tc.spec)
			want := localRun(t, tc.filename, tc.spec)
			// ref maps each point to its event as first streamed, seq aside.
			ref := make(map[int]PointEvent)
			for _, ev := range readEventLog(t, &job{dir: src}) {
				ev.Seq = 0
				ref[ev.Point] = ev
			}
			if len(ref) != info.Points {
				t.Fatalf("recorded log holds %d points, want %d", len(ref), info.Points)
			}
			states, synced := crashStates(ops)
			t.Logf("%d points, %d log calls, %d crash states", info.Points, len(ops), len(states))
			for i, state := range states {
				dir := t.TempDir()
				stageInterrupted(t, info, src, dir, state)
				s, ts := newTestServer(t, dir)
				s.wg.Wait()
				base := ts.URL + "/v1/campaigns/" + info.ID
				if got := string(httpBody(t, base+"/report", "")); got != want {
					t.Fatalf("state %d (%d bytes): resumed report diverged from scenario.Run:\n%s", i, len(state), got)
				}
				fresh := httpBody(t, base+"/events", "")
				lines := bytes.SplitAfter(fresh, []byte{'\n'})
				lines = lines[:len(lines)-1] // the trailing empty split
				var events []PointEvent
				for _, line := range lines[:len(lines)-1] {
					var ev PointEvent
					if err := json.Unmarshal(line, &ev); err != nil {
						t.Fatalf("state %d: stream line %q: %v", i, line, err)
					}
					events = append(events, ev)
					ev.Seq = 0
					if ev != ref[ev.Point] {
						t.Fatalf("state %d: point %d streamed as %+v, want %+v", i, ev.Point, ev, ref[ev.Point])
					}
				}
				checkEventLog(t, "state "+strconv.Itoa(i), events, info.Points)
				for k := 0; k <= synced[i]; k++ {
					got := httpBody(t, base+"/events", strconv.Itoa(k))
					if rest := bytes.Join(lines[k:], nil); !bytes.Equal(got, rest) {
						t.Fatalf("state %d: Last-Point: %d replayed\n%s\nwant\n%s", i, k, got, rest)
					}
				}
				s.Drain()
				ts.Close()
			}
		})
	}
}
