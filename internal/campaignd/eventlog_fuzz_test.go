package campaignd

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// fuzzPoints is the grid size the committed seed corpus
// (testdata/fuzz/FuzzLoadEventLog: a clean log, a torn tail, a corrupt
// middle line, a line that is not a point event, an empty file) is
// written for.
const fuzzPoints = 4

// validPrefix is the oracle for what a resumable job keeps of its event
// log: the leading complete lines that each decode as point event number
// i, for a distinct point in the grid. It returns their count and length.
func validPrefix(data []byte) (n, size int) {
	seen := make(map[int]bool)
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasSuffix(line, "\n") {
			break
		}
		var ev PointEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Type != "point" || ev.Seq != n ||
			ev.Point < 0 || ev.Point >= fuzzPoints || seen[ev.Point] {
			break
		}
		seen[ev.Point] = true
		n++
		size += len(line)
	}
	return n, size
}

// FuzzLoadEventLog feeds arbitrary bytes to the event-log loader as a
// resumable job's events.ndjson. It must never panic, must count exactly
// the valid leading lines as committed, and must leave the file holding
// exactly those lines, so the next append starts on a line boundary.
func FuzzLoadEventLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		j := &job{dir: t.TempDir(), seen: make(map[int]bool)}
		if err := os.WriteFile(j.eventsPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := j.loadEventLog(fuzzPoints); err != nil {
			t.Fatalf("loadEventLog: %v", err)
		}
		n, size := validPrefix(data)
		if j.info.Committed != n || len(j.seen) != n {
			t.Fatalf("committed %d (%d points seen), want %d", j.info.Committed, len(j.seen), n)
		}
		got, err := os.ReadFile(j.eventsPath())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:size]) {
			t.Fatalf("log after load = %q, want its valid prefix %q", got, data[:size])
		}
	})
}
