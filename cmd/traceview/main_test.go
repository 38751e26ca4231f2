package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/machine"
	"tocttou/internal/trace"
	"tocttou/internal/victim"
)

// TestFlagValidationAtParseTime pins the convention that every bad flag
// value is rejected before any round runs: each invocation here must fail,
// and fail fast (a lazily validated -want would first burn 512 rounds).
func TestFlagValidationAtParseTime(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-machine", "nope"}, "unknown machine"},
		{[]string{"-victim", "nope"}, "unknown victim"},
		{[]string{"-attacker", "nope"}, "unknown attacker"},
		{[]string{"-want", "maybe"}, "unknown -want"},
		{[]string{"-width", "0"}, "-width must be positive"},
		{[]string{"-size", "-3"}, "-size must be a positive"},
		{[]string{"-input", "x.jsonl", "-machine", "up"}, "only apply when running a live round"},
		{[]string{"-input", "x.jsonl", "-want", "success", "-seed", "9"}, "only apply when running a live round"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Errorf("run(%v): expected an error, got none", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %q, want it to mention %q", tc.args, err, tc.want)
		}
	}
}

// TestInputErrorsAreFatal pins the non-zero-exit contract for -input: an
// unreadable file, a malformed line, and an unknown event kind are all
// errors (main turns any run() error into exit status 1). Non-zero exit is
// reserved for genuinely malformed input — valid-but-empty exports are
// covered by TestInputDegenerateButValid.
func TestInputErrorsAreFatal(t *testing.T) {
	dir := t.TempDir()

	if err := run([]string{"-input", filepath.Join(dir, "absent.jsonl")}); err == nil {
		t.Error("unreadable -input file: expected an error, got none")
	}

	cases := []struct {
		name    string
		content string
		want    string
	}{
		{"not json", "{\"t_ns\":0,\"kind\":\"spawn\"}\nnot json at all\n", "line 2"},
		{"unknown kind", "{\"t_ns\":0,\"kind\":\"warp-core-breach\"}\n", "unknown event kind"},
		{"truncated object", "{\"t_ns\":0,\"kind\":\"spawn\"\n", "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "bad.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			err := run([]string{"-input", path})
			if err == nil {
				t.Fatal("malformed -input JSONL: expected an error, got none")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestInputDegenerateButValid pins the other side of that contract: an
// export that parses but has nothing (or nothing span-shaped) to draw —
// zero events, or only point-like EvChoice/EvFault records — renders a
// clean report with a nil error, never a hard failure.
func TestInputDegenerateButValid(t *testing.T) {
	cases := []struct {
		name    string
		content string
		want    []string
	}{
		{"empty file", "", []string{"0 events", "nothing to render"}},
		{"blank lines only", "\n\n\n", []string{"0 events", "nothing to render"}},
		{"choice events only",
			"{\"t_ns\":0,\"kind\":\"choice\",\"label\":\"dispatch\",\"arg\":1}\n" +
				"{\"t_ns\":0,\"kind\":\"choice\",\"label\":\"stall\"}\n",
			[]string{"2 events", "timeline omitted"}},
		{"fault events only",
			"{\"t_ns\":0,\"kind\":\"fault\",\"pid\":3,\"label\":\"errno\",\"arg\":5}\n",
			[]string{"1 events", "timeline omitted"}},
		{"choice and fault mixed",
			"{\"t_ns\":0,\"kind\":\"choice\",\"label\":\"dispatch\",\"arg\":2}\n" +
				"{\"t_ns\":1500,\"kind\":\"fault\",\"pid\":2,\"label\":\"kill\"}\n",
			[]string{"2 events"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			out := captureStdout(t, func() {
				if err := run([]string{"-input", path}); err != nil {
					t.Errorf("valid degenerate input rejected: %v", err)
				}
			})
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	fn()
	w.Close()
	return <-done
}

// TestInputRendersExportedRound round-trips a real traced round through the
// JSONL export and back through -input, including the CSV re-export.
func TestInputRendersExportedRound(t *testing.T) {
	round, err := core.RunRound(core.Scenario{
		Machine:    machine.SMP2(),
		Victim:     victim.NewVi(),
		Attacker:   attack.NewV1(),
		UseSyscall: "chown",
		FileSize:   100 << 10,
		Seed:       9001,
		Trace:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "round.jsonl")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, round.Events, trace.Filter{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "round.csv")
	if err := run([]string{"-input", in, "-width", "80", "-csv", csv}); err != nil {
		t.Fatalf("rendering a valid export: %v", err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatalf("CSV re-export missing: %v", err)
	}
	if lines := strings.Count(string(data), "\n"); lines < len(round.Events) {
		t.Errorf("CSV re-export has %d lines for %d events", lines, len(round.Events))
	}
}

// TestWantedSeedReproduces pins that the header names the round it
// shows: re-running with the printed -seed and no -want must print the
// same header and outcome.
func TestWantedSeedReproduces(t *testing.T) {
	seedRe := regexp.MustCompile(`seed=(-?[0-9]+)`)
	for _, args := range [][]string{
		{"-machine", "up", "-victim", "vi", "-size", "500", "-want", "success"},
		{"-machine", "smp", "-victim", "gedit", "-attacker", "v1", "-size", "2", "-want", "failure"},
	} {
		head := func(args []string) []string {
			out := captureStdout(t, func() {
				if err := run(args); err != nil {
					t.Fatalf("run(%v): %v", args, err)
				}
			})
			return strings.SplitN(out, "\n", 3)[:2]
		}
		wanted := head(args)
		m := seedRe.FindStringSubmatch(wanted[0])
		if m == nil {
			t.Fatalf("run(%v): header %q names no seed", args, wanted[0])
		}
		replay := head(append(args[:len(args)-2:len(args)-2], "-seed", m[1]))
		if replay[0] != wanted[0] || replay[1] != wanted[1] {
			t.Errorf("run(%v) printed\n%s\n%s\nbut -seed %s alone printed\n%s\n%s", args, wanted[0], wanted[1], m[1], replay[0], replay[1])
		}
	}
}
