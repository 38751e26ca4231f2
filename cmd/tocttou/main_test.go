package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fault/checkpoint/size flags are validated at parse time, before
// any simulation runs; every rejected combination must name the offending
// flag so the error is actionable.
func TestRunRejectsBadFlagCombos(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "t.jsonl")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{
			"fault-rates without faultsweep",
			[]string{"-experiment", "fig6", "-fault-rates", "0.1"},
			"-fault-rates",
		},
		{
			"fault-seed without faultsweep",
			[]string{"-experiment", "fig6", "-fault-seed", "7"},
			"-fault-seed",
		},
		{
			"fault rate above one",
			[]string{"-experiment", "faultsweep", "-fault-rates", "1.5"},
			"[0, 1]",
		},
		{
			"fault rate negative",
			[]string{"-experiment", "faultsweep", "-fault-rates", "-0.1"},
			"[0, 1]",
		},
		{
			"fault rate unparsable",
			[]string{"-experiment", "faultsweep", "-fault-rates", "lots"},
			"bad fault rate",
		},
		{
			"fault rates empty",
			[]string{"-experiment", "faultsweep", "-fault-rates", ""},
			"fault rate",
		},
		{
			"size overflowing a byte count",
			[]string{"-experiment", "fig6", "-sizes", "9007199254740993", "-rounds", "2"},
			"overflows a byte count",
		},
		{
			"checkpoint with several experiments",
			[]string{"-experiment", "fig6,headline", "-checkpoint", "x.ckpt"},
			"exactly one",
		},
		{
			"checkpoint with all",
			[]string{"-experiment", "all", "-checkpoint", "x.ckpt"},
			"exactly one",
		},
		{
			"checkpoint with unsupported experiment",
			[]string{"-experiment", "sendmail", "-checkpoint", "x.ckpt"},
			"not supported",
		},
		{
			"checkpoint without experiment mode",
			[]string{"-explore", "-checkpoint", "x.ckpt"},
			"-checkpoint",
		},
		{
			"checkpoint with trace export",
			[]string{"-trace-out", "t.jsonl", "-checkpoint", "x.ckpt"},
			"-checkpoint",
		},
		{
			"negative rounds",
			[]string{"-experiment", "fig7", "-rounds", "-5"},
			"-rounds must be >= 0 (0 = experiment default)",
		},
		{
			"trace pid wrapping int32",
			[]string{"-trace-out", traceOut, "-trace-pid", "4294967298"},
			"-trace-pid must be in [0, 2147483647]",
		},
		{
			"trace pid negative",
			[]string{"-trace-out", traceOut, "-trace-pid", "-1"},
			"-trace-pid must be in [0, 2147483647]",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%v) error %q does not mention %q", c.args, err, c.want)
			}
		})
	}
}

// TestScenarioFlagValidation pins the -scenario contract at the flag
// layer: the file carries the whole configuration, so every overriding
// knob is rejected at parse time, before the file is even opened.
func TestScenarioFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{
			"scenario with experiment",
			[]string{"-scenario", "x.yaml", "-experiment", "fig6"},
			"-experiment does not apply",
		},
		{
			"scenario with rounds override",
			[]string{"-scenario", "x.yaml", "-rounds", "10"},
			"-rounds does not apply",
		},
		{
			"scenario with seed override",
			[]string{"-scenario", "x.yaml", "-seed", "7"},
			"-seed does not apply",
		},
		{
			"scenario with adaptive",
			[]string{"-scenario", "x.yaml", "-adaptive"},
			"flag provided but not defined: -adaptive",
		},
		{
			"scenario with explore",
			[]string{"-scenario", "x.yaml", "-explore"},
			"-explore does not apply",
		},
		{
			"scenario with trace export",
			[]string{"-scenario", "x.yaml", "-trace-out", "t.jsonl"},
			"-trace-out does not apply",
		},
		{
			"missing scenario file",
			[]string{"-scenario", "definitely-absent.yaml"},
			"definitely-absent.yaml",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%v) error %q does not mention %q", c.args, err, c.want)
			}
		})
	}
}

// TestScenarioMalformedSpecExitsNonZero pins the parse-time-validation
// contract end-to-end: a spec with an unknown key, a bad value, or a
// failing assertion turns into a run() error (exit status 1), and the
// error names the offending path and line.
func TestScenarioMalformedSpecExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	writeSpec := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	unknown := writeSpec("unknown.yaml",
		"name: x\nmachine: up\nrounds: 5\nseed: 1\nvictim: vi\nattacker: v1\nsizes_kb: [50]\nturbo: on\n")
	err := run([]string{"-scenario", unknown})
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, want := range []string{"unknown key \"turbo\"", "line 8", "unknown.yaml"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	badValue := writeSpec("badvalue.yaml",
		"name: x\nmachine: hal9000\nrounds: 5\nseed: 1\nvictim: vi\nattacker: v1\nsizes_kb: [50]\n")
	if err := run([]string{"-scenario", badValue}); err == nil || !strings.Contains(err.Error(), "hal9000") {
		t.Errorf("bad machine: got %v", err)
	}

	failing := writeSpec("failing.yaml",
		"name: x\nmachine: up\nrounds: 5\nseed: 1\nvictim: vi\nattacker: v1\nsizes_kb: [50]\n"+
			"assertions:\n  - metric: rounds\n    max: 1\n")
	err = run([]string{"-scenario", failing})
	if err == nil {
		t.Fatal("failing assertion accepted")
	}
	if !strings.Contains(err.Error(), "assertion 0") {
		t.Errorf("assertion failure %q does not name the assertion", err)
	}
}

// TestScenarioGoldenSnapshot runs a tiny valid scenario with -golden and
// checks the snapshot lands under the spec's name.
func TestScenarioGoldenSnapshot(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "tiny.yaml")
	content := "name: tiny-check\nmachine: up\nrounds: 4\nseed: 11\nvictim: vi\nattacker: v1\nsizes_kb: [50]\n"
	if err := os.WriteFile(spec, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join(dir, "golden")
	if err := run([]string{"-scenario", spec, "-golden", golden}); err != nil {
		t.Fatalf("golden scenario run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(golden, "tiny-check.txt"))
	if err != nil {
		t.Fatalf("golden snapshot missing: %v", err)
	}
	if !strings.Contains(string(data), "tiny-check") {
		t.Errorf("snapshot does not carry the scenario name:\n%s", data)
	}
}
