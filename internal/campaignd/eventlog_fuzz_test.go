package campaignd

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

// fuzzSpec is the grid the committed seed corpus
// (testdata/fuzz/FuzzLoadEventLog) is written for: four points. The
// seeds are a clean log, a torn tail, a corrupt middle line, a line that
// is not a point event, an empty file, a layout-1 line without a
// result, a result-less line after a valid one (corrupt, not layout 1),
// a line whose event fields disagree with its result, a repeated point,
// a seq gap, and a log older builds wrote in finishing order (points 1,
// 0, 2, 3), of which nothing is restored.
const fuzzSpec = "name: fuzz-grid\nmachine: up\nrounds: 3\nseed: 4242\nvictim: vi\nattacker: v1\nsizes_kb: [100, 200, 300, 400]\n"

// validPrefix is the oracle for what a resumable job keeps of its log:
// the leading complete lines that each decode as point event number i
// for point i of the grid, carry that point's label, and agree with the
// result they carry. It returns their results and length, and
// layout1 when the first line is a decodable point line without a
// result; a later such line ends the prefix like any corrupt line.
func validPrefix(data []byte, labels []string) (restored []core.PointResult, size int, layout1 bool) {
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasSuffix(line, "\n") {
			break
		}
		var l logLine
		if json.Unmarshal([]byte(line), &l) != nil {
			break
		}
		if len(restored) == 0 && l.Type == "point" && l.Result == nil {
			return nil, 0, true
		}
		ev, res := l.PointEvent, l.Result
		if ev.Type != "point" || res == nil || ev.Seq != len(restored) ||
			ev.Point != len(restored) || ev.Point >= len(labels) || ev.Label != labels[ev.Point] {
			break
		}
		if ev.Rounds != res.Rounds || ev.Successes != res.Successes || ev.Rate != res.Rate() ||
			ev.VictimErrors != res.VictimErrors || ev.AttackErrors != res.AttackErrors {
			break
		}
		restored = append(restored, core.PointResult{Point: ev.Point, Result: *res})
		size += len(line)
	}
	return restored, size, false
}

// FuzzLoadEventLog feeds arbitrary bytes to the job-log loader as a
// resumable job's events.ndjson. It must never panic. A layout-1
// log (a result-less first line) fails with the version error and is left as it is. Otherwise the
// loader must restore exactly the valid leading lines' results, in
// order, count
// them as committed, and leave the file holding exactly those lines, so
// the next append starts on a line boundary.
func FuzzLoadEventLog(f *testing.F) {
	spec, err := scenario.LoadBytes("fuzz.yaml", []byte(fuzzSpec))
	if err != nil {
		f.Fatal(err)
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		f.Fatal(err)
	}
	labels := make([]string, len(compiled.Meta))
	for i, m := range compiled.Meta {
		labels[i] = m.Label
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j := &job{dir: t.TempDir(), compiled: compiled}
		if err := os.WriteFile(j.eventsPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, size, layout1 := validPrefix(data, labels)
		log, err := j.loadLog()
		got, rerr := os.ReadFile(j.eventsPath())
		if rerr != nil {
			t.Fatal(rerr)
		}
		if layout1 {
			if !errors.Is(err, errLayout1) || !bytes.Equal(got, data) {
				t.Fatalf("layout-1 log: err %v, file changed %v; want the version error and the file untouched", err, !bytes.Equal(got, data))
			}
			return
		}
		if err != nil {
			t.Fatalf("loadLog: %v", err)
		}
		if j.info.Committed != len(want) || log.lines != len(want) || len(log.restored) != len(want) {
			t.Fatalf("committed %d (%d lines, %d restored), want %d", j.info.Committed, log.lines, len(log.restored), len(want))
		}
		for i, pr := range want {
			if log.restored[i] != pr.Result {
				t.Fatalf("point %d restored as %+v, want %+v", i, log.restored[i], pr.Result)
			}
		}
		if !bytes.Equal(got, data[:size]) {
			t.Fatalf("log after load = %q, want its valid prefix %q", got, data[:size])
		}
	})
}
