package campaignd

// Crash-state enumeration for the job log. Every Write and Sync a
// campaign makes on events.ndjson fixes what a crash could leave: the
// bytes durable at a sync point, plus any prefix of the one write not
// yet synced. The cases are fixed up front — for the write after each
// sync point, a cut at every line boundary, one byte into every line,
// and the whole write — and each must be a byte prefix of the
// uninterrupted log, which a restarted server must complete byte for
// byte, streaming every point exactly once, rendering the local run's
// report, and replaying the exact remaining points from every offset it
// kept.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tocttou/internal/core"
	"tocttou/internal/linelog"
	"tocttou/internal/scenario"
)

// logOp is one call on a recorded job log — a write's bytes, or a sync
// — or, with finished set, the moment point finished.
type logOp struct {
	data     []byte
	sync     bool
	finished bool
	point    int
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

// recordCampaign runs spec to completion on an in-process server, then
// runs its points once more through a replica of runJob's in-process
// commit path: the job's log codec (loadLog), core.ResumeSweep and
// SweepResume.Commit, with a done callback that publishes nothing. It
// records every call the replica makes through the log seam
// (linelog.OpenFile) and the moment each point finishes, which the
// server does not expose. The crash states are therefore the replica's
// writes, with the replica's batch boundaries; only its final log is
// checked against the server's, byte for byte. Every state resumes on
// a real server. It returns the job's info, the server's job directory
// and the calls.
func recordCampaign(t *testing.T, filename, spec string) (JobInfo, string, []logOp) {
	t.Helper()
	info, src := finishedJob(t, filename, spec)
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
	j := &job{dir: t.TempDir(), compiled: compileSpec(t, filename, spec)}
	log, err := j.loadLog()
	if err != nil {
		t.Fatal(err)
	}
	points := j.compiled.Points
	rs, err := core.ResumeSweep(log, points, func([]core.PointResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = core.RunSweepSubset(points, rs.Pending, core.SweepOptions{OnPointDone: func(p int, res core.CampaignResult) {
		mu.Lock()
		ops = append(ops, logOp{finished: true, point: p})
		mu.Unlock()
		rs.Commit(p, res)
	}})
	if derr := rs.Drain(); err == nil {
		err = derr
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, j.eventsPath()), readFile(t, filepath.Join(src, "events.ndjson")); !bytes.Equal(got, want) {
		t.Fatalf("recorded log differs from the server's")
	}
	mu.Lock()
	defer mu.Unlock()
	return info, src, ops
}

// compileSpec loads and compiles a spec.
func compileSpec(t *testing.T, filename, spec string) *scenario.Compiled {
	t.Helper()
	s, err := scenario.LoadBytes(filename, []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// crashStates enumerates the log contents a crash can leave: for each
// sync point, the bytes durable there plus a cut of the next write at
// every line boundary, one byte into every line, and the whole write.
// Equal contents are listed once. synced[i] is state i's durable line
// count; held[i] counts the points that had finished when state i's
// crash came but waited, unwritten, above an unfinished one.
func crashStates(ops []logOp) (states [][]byte, synced, held []int) {
	seen := make(map[string]bool)
	var durable, pending []byte
	var finished []bool
	add := func(cut int) {
		state := append(bytes.Clone(durable), pending[:cut]...)
		if !seen[string(state)] {
			seen[string(state)] = true
			states = append(states, state)
			synced = append(synced, bytes.Count(durable, []byte{'\n'}))
			held = append(held, heldAbove(finished))
		}
	}
	for _, op := range ops {
		switch {
		case op.finished:
			for len(finished) <= op.point {
				finished = append(finished, false)
			}
			finished[op.point] = true
			continue
		case op.sync:
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
	return states, synced, held
}

// heldAbove counts the finished points above the first unfinished one.
func heldAbove(finished []bool) int {
	n, low := 0, slices.Index(finished, false)
	for low >= 0 && low < len(finished) {
		if finished[low] {
			n++
		}
		low++
	}
	return n
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
			full := readFile(t, filepath.Join(src, "events.ndjson"))
			compiled := compileSpec(t, tc.filename, tc.spec)
			states, synced, held := crashStates(ops)
			heldRuns, heldMax := 0, 0
			for i, state := range states {
				if !bytes.HasPrefix(full, state) {
					t.Fatalf("state %d (%d bytes) is not a prefix of the uninterrupted log", i, len(state))
				}
				dir := t.TempDir()
				stageInterrupted(t, info, src, dir, state)
				// Loading keeps the state's complete lines, points 0 to k-1.
				staged := &job{dir: filepath.Join(dir, "jobs", info.ID), compiled: compiled}
				log, err := staged.loadLog()
				if err != nil {
					t.Fatalf("state %d: load: %v", i, err)
				}
				log.Close()
				if kept := state[:bytes.LastIndexByte(state, '\n')+1]; !bytes.Equal(readFile(t, staged.eventsPath()), kept) || len(log.restored) != bytes.Count(kept, []byte{'\n'}) {
					t.Fatalf("state %d (%d bytes): loaded %d points, not its %d bytes of complete lines", i, len(state), len(log.restored), len(kept))
				}
				s, ts := newTestServer(t, dir)
				s.wg.Wait()
				if got := readFile(t, staged.eventsPath()); !bytes.Equal(got, full) {
					t.Fatalf("state %d (%d bytes): resumed log differs from the uninterrupted one", i, len(state))
				}
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
				heldRuns += held[i]
				heldMax = max(heldMax, held[i])
			}
			t.Logf("%d points, %d log calls, %d crash states; points re-run because they were held: %d in all, at most %d in one state", info.Points, len(ops)-info.Points, len(states), heldRuns, heldMax)
		})
	}
}
