package scenario

import (
	"strings"
	"testing"
	"time"
)

// minimalSpec is the smallest valid scenario; the rejection tests below
// each break exactly one thing relative to shapes like it.
const minimalSpec = `
name: smoke
machine: up
rounds: 10
seed: 1
victim: vi
attacker: v1
sizes_kb: [100]
`

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	spec, err := Parse([]byte(src), false)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return spec
}

func TestSpecMinimalDefaults(t *testing.T) {
	spec := mustParse(t, minimalSpec)
	if spec.SeedStride != 7919 {
		t.Errorf("default seed_stride = %d, want 7919", spec.SeedStride)
	}
	if spec.Syscall != "chown" {
		t.Errorf("vi's default syscall = %q, want chown", spec.Syscall)
	}
	if spec.Report != "table" {
		t.Errorf("default report = %q, want table", spec.Report)
	}
	gedit := strings.Replace(minimalSpec, "victim: vi", "victim: gedit", 1)
	gedit = strings.Replace(gedit, "attacker: v1", "attacker: v2", 1)
	if spec := mustParse(t, gedit); spec.Syscall != "chmod" {
		t.Errorf("gedit's default syscall = %q, want chmod", spec.Syscall)
	}
}

// TestSpecRejections is the parse-time validation contract: every
// malformed spec here must fail before any round runs, with an error
// naming the offending path (and line, where the source carries one).
func TestSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{"unknown top-level key",
			minimalSpec + "frobnicate: 1\n",
			[]string{"unknown key \"frobnicate\"", "line 9"}},
		{"missing name",
			"machine: up\nrounds: 10\nseed: 1\nvictim: vi\nattacker: v1\nsizes_kb: [100]\n",
			[]string{"name", "required"}},
		{"missing machine",
			"name: x\nrounds: 10\nseed: 1\nvictim: vi\nattacker: v1\nsizes_kb: [100]\n",
			[]string{"machine", "required"}},
		{"missing rounds",
			"name: x\nmachine: up\nseed: 1\nvictim: vi\nattacker: v1\nsizes_kb: [100]\n",
			[]string{"rounds", "required"}},
		{"missing seed",
			"name: x\nmachine: up\nrounds: 10\nvictim: vi\nattacker: v1\nsizes_kb: [100]\n",
			[]string{"seed", "required"}},
		{"zero rounds",
			strings.Replace(minimalSpec, "rounds: 10", "rounds: 0", 1),
			[]string{"rounds", "must be > 0"}},
		{"zero seed_stride",
			minimalSpec + "seed_stride: 0\n",
			[]string{"seed_stride", "non-zero"}},
		{"seed_stride wraps onto an earlier seed",
			strings.Replace(minimalSpec, "sizes_kb: [100]", "sizes_kb: [100, 200, 300, 400, 100]", 1) + "seed_stride: 4611686018427387904\n",
			[]string{"line 9", "seed_stride", "repeats a seed within the 5-point grid"}},
		{"fleet seed_stride wraps onto an earlier seed",
			"name: x\nmachine: up\nrounds: 2\nseed: 1\nseed_stride: -9223372036854775808\nfleet:\n  total: 3\n  jitter_seed: 1\n  templates:\n    - name: a\n      weight: 1\n      victim: vi\n      attacker: v1\n      size_kb: 20\n",
			[]string{"line 5", "seed_stride", "repeats a seed within the 3-point grid"}},
		{"unknown machine",
			strings.Replace(minimalSpec, "machine: up", "machine: quantum", 1),
			[]string{"machine", "unknown machine \"quantum\"", "line 3"}},
		{"unknown victim",
			strings.Replace(minimalSpec, "victim: vi", "victim: emacs", 1),
			[]string{"victim", "unknown victim \"emacs\""}},
		{"unknown attacker",
			strings.Replace(minimalSpec, "attacker: v1", "attacker: v9", 1),
			[]string{"attacker", "unknown attacker \"v9\""}},
		{"unknown syscall",
			minimalSpec + "syscall: fork\n",
			[]string{"syscall", "unknown syscall \"fork\""}},
		{"bad report",
			minimalSpec + "report: pie-chart\n",
			[]string{"report", "unknown report"}},
		{"negative size",
			strings.Replace(minimalSpec, "sizes_kb: [100]", "sizes_kb: [100, -5]", 1),
			[]string{"sizes_kb[1]", "must be > 0"}},
		{"empty sizes",
			strings.Replace(minimalSpec, "sizes_kb: [100]", "sizes_kb: []", 1),
			[]string{"sizes_kb", "at least one"}},
		{"bad size range",
			strings.Replace(minimalSpec, "sizes_kb: [100]", "sizes_kb: {from: 200, to: 100, step: 50}", 1),
			[]string{"sizes_kb", "from <= to"}},
		{"rounds not an integer",
			strings.Replace(minimalSpec, "rounds: 10", "rounds: many", 1),
			[]string{"rounds", "expected an integer"}},
		{"fault rate out of range",
			minimalSpec + "fault_rates: [0, 1.5]\nfaults:\n  seed: 1\n",
			[]string{"fault_rates[1]", "[0, 1]"}},
		{"fault_rates without faults block",
			minimalSpec + "fault_rates: [0.1]\n",
			[]string{"fault_rates", "requires a faults block"}},
		{"absolute rate under a rates axis",
			minimalSpec + "fault_rates: [0.1]\nfaults:\n  seed: 1\n  fs_rate: 0.5\n",
			[]string{"faults.fs_rate", "fs_scale"}},
		{"scale without a rates axis",
			minimalSpec + "faults:\n  seed: 1\n  fs_scale: 1\n",
			[]string{"faults.fs_scale", "fault_rates"}},
		{"fs_rate out of range",
			minimalSpec + "faults:\n  seed: 1\n  fs_rate: 2\n",
			[]string{"faults.fs_rate", "[0, 1]"}},
		{"faults without seed",
			minimalSpec + "faults:\n  fs_rate: 0.1\n",
			[]string{"faults.seed", "required"}},
		{"unknown faults key",
			minimalSpec + "faults:\n  seed: 1\n  chaos: maximal\n",
			[]string{"faults", "unknown key \"chaos\""}},
		{"negative watchdog",
			minimalSpec + "watchdog_ms: -1\n",
			[]string{"watchdog_ms", ">= 0"}},
		{"unknown policy",
			minimalSpec + "policies: [give-up, shrug]\n",
			[]string{"policies[1]", "unknown policy \"shrug\""}},
		{"duplicate policy",
			minimalSpec + "policies: [retry, retry]\n",
			[]string{"policies[1]", "duplicate policy"}},
		{"custom policy without name",
			minimalSpec + "policies:\n  - retries: 3\n",
			[]string{"policies[0].name", "required"}},
		{"policies on a robustness-free pair",
			strings.Replace(minimalSpec, "attacker: v1", "attacker: v2", 1) + "policies: [give-up]\n",
			[]string{"policies", "vi", "v1"}},
		{"fig6 with wrong victim",
			strings.Replace(minimalSpec, "victim: vi", "victim: gedit", 1) + "report: fig6\n",
			[]string{"report", "fig6"}},
		{"faultsweep without axes",
			minimalSpec + "report: faultsweep\n",
			[]string{"report", "faultsweep"}},
		{"assertion without bounds",
			minimalSpec + "assertions:\n  - metric: success_rate\n",
			[]string{"assertions[0]", "min, max, or both"}},
		{"assertion min above max",
			minimalSpec + "assertions:\n  - metric: success_rate\n    min: 0.9\n    max: 0.1\n",
			[]string{"assertions[0]", "never pass"}},
		{"assertion unknown metric",
			minimalSpec + "assertions:\n  - metric: vibes\n    min: 1\n",
			[]string{"assertions[0].metric", "unknown metric \"vibes\""}},
		{"assertion point out of range",
			minimalSpec + "assertions:\n  - metric: success_rate\n    point: 7\n    max: 1\n",
			[]string{"assertions[0].point", "out of range", "1 points"}},
		{"assertion mean metric without point",
			minimalSpec + "assertions:\n  - metric: l_mean_us\n    max: 100\n",
			[]string{"assertions[0].metric", "point selector"}},
		{"assertion template without fleet",
			minimalSpec + "assertions:\n  - metric: success_rate\n    template: nope\n    max: 1\n",
			[]string{"assertions[0].template", "fleet"}},
		{"fleet missing jitter_seed",
			"name: x\nmachine: up\nrounds: 2\nseed: 1\nfleet:\n  total: 10\n  templates:\n    - name: a\n      weight: 1\n      victim: vi\n      attacker: v1\n      size_kb: 20\n",
			[]string{"fleet.jitter_seed", "required"}},
		{"fleet zero weight",
			"name: x\nmachine: up\nrounds: 2\nseed: 1\nfleet:\n  total: 10\n  jitter_seed: 1\n  templates:\n    - name: a\n      weight: 0\n      victim: vi\n      attacker: v1\n      size_kb: 20\n",
			[]string{"fleet.templates[0].weight", "must be > 0"}},
		{"fleet duplicate template names",
			"name: x\nmachine: up\nrounds: 2\nseed: 1\nfleet:\n  total: 10\n  jitter_seed: 1\n  templates:\n    - name: a\n      weight: 1\n      victim: vi\n      attacker: v1\n      size_kb: 20\n    - name: a\n      weight: 2\n      victim: gedit\n      attacker: v2\n      size_kb: 20\n",
			[]string{"fleet.templates[1].name", "duplicate template name \"a\""}},
		{"fleet bad size range",
			"name: x\nmachine: up\nrounds: 2\nseed: 1\nfleet:\n  total: 10\n  jitter_seed: 1\n  templates:\n    - name: a\n      weight: 1\n      victim: vi\n      attacker: v1\n      size_kb:\n        min: 50\n        max: 20\n",
			[]string{"fleet.templates[0].size_kb", "min <= max"}},
		{"fleet conflicts with workload keys",
			minimalSpec + "fleet:\n  total: 10\n  jitter_seed: 1\n  templates:\n    - name: a\n      weight: 1\n      victim: vi\n      attacker: v1\n      size_kb: 20\n",
			[]string{"conflicts with fleet"}},
		{"fleet unknown assertion template",
			"name: x\nmachine: up\nrounds: 2\nseed: 1\nfleet:\n  total: 10\n  jitter_seed: 1\n  templates:\n    - name: a\n      weight: 1\n      victim: vi\n      attacker: v1\n      size_kb: 20\nassertions:\n  - metric: success_rate\n    template: b\n    max: 1\n",
			[]string{"unknown template \"b\""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src), false)
			if err == nil {
				t.Fatalf("expected an error for:\n%s", tc.src)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestSpecSeedStrideBoundary pins the largest grid a power-of-two
// stride serves: 2^62 gives four distinct seeds, and SetSizes rejects a
// fifth size as parsing would.
func TestSpecSeedStrideBoundary(t *testing.T) {
	spec := mustParse(t, strings.Replace(minimalSpec, "sizes_kb: [100]", "sizes_kb: [100, 200, 300, 400]", 1)+"seed_stride: 4611686018427387904\n")
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, p := range c.Points {
		if seen[p.Scenario.Seed] {
			t.Fatalf("seed %d repeats", p.Scenario.Seed)
		}
		seen[p.Scenario.Seed] = true
	}
	err = spec.SetSizes([]int{100, 200, 300, 400, 500})
	if err == nil || !strings.Contains(err.Error(), "repeats a seed") {
		t.Fatalf("SetSizes to 5 sizes: err = %v, want a repeated-seed rejection", err)
	}
}

// TestSpecCustomPolicy pins the custom-policy mapping form.
func TestSpecCustomPolicy(t *testing.T) {
	spec := mustParse(t, minimalSpec+`policies:
  - give-up
  - name: patient
    retries: 9
    backoff_us: 5
    fallback: true
`)
	if len(spec.Policies) != 2 {
		t.Fatalf("got %d policies", len(spec.Policies))
	}
	p := spec.Policies[1]
	if p.Label != "patient" || p.Robust.Retries != 9 ||
		p.Robust.Backoff != 5*time.Microsecond || !p.Robust.Fallback {
		t.Errorf("custom policy decoded wrong: %+v", p)
	}
}

// TestSpecJSONInput pins the JSON front end end-to-end through Parse.
func TestSpecJSONInput(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "json-smoke", "machine": "smp", "rounds": 5, "seed": 3,
		"victim": "vi", "attacker": "v1", "sizes_kb": [40, 80]
	}`), true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(spec.Machine.Name), "smp") {
		t.Errorf("machine = %q, want the SMP profile", spec.Machine.Name)
	}
	if len(spec.SizesKB) != 2 || spec.SizesKB[1] != 80 {
		t.Errorf("sizes = %v", spec.SizesKB)
	}
	if _, err := Parse([]byte(`{"name": "x", "machine": "up"}`), true); err == nil {
		t.Error("JSON spec missing rounds: expected an error")
	}
}

// TestSpecRejectsUnboundedGrids pins the input checks that keep a short
// spec from demanding an unbounded grid: a size range whose step wraps
// int64, a range or grid past maxPoints, a size whose byte count
// overflows, and an oversized fleet. Each must fail fast in Parse, with
// the key and its line, before any point is built.
func TestSpecRejectsUnboundedGrids(t *testing.T) {
	withSizes := func(sizes string) string {
		return strings.Replace(minimalSpec, "sizes_kb: [100]", "sizes_kb: "+sizes, 1)
	}
	fleet := func(total, sizeKB string, weights ...string) string {
		src := "name: x\nmachine: up\nrounds: 2\nseed: 1\nfleet:\n  total: " + total + "\n  jitter_seed: 1\n  templates:\n"
		for i, w := range weights {
			src += "    - name: t" + string(rune('a'+i)) + "\n      weight: " + w +
				"\n      victim: vi\n      attacker: v1\n      size_kb: " + sizeKB + "\n"
		}
		return src
	}
	cases := []struct {
		name string
		src  string
		json bool
		want []string
	}{
		{"range step wraps int64",
			withSizes("{from: 1, to: 9223372036854775807, step: 4611686018427387904}"), false,
			[]string{"line 8", "sizes_kb.to", "overflows"}},
		{"range step wraps int64, JSON",
			`{"name": "x", "machine": "up", "rounds": 1, "seed": 1, "victim": "vi", "attacker": "v1",
"sizes_kb": {"from": 1, "to": 9223372036854775807, "step": 4611686018427387904}}`, true,
			[]string{"sizes_kb.to", "overflows"}},
		{"huge range",
			withSizes("{from: 1, to: 100000000, step: 1}"), false,
			[]string{"line 8", "sizes_kb", "100000000 sizes", "10000-point limit"}},
		{"size overflows a byte count",
			withSizes("[100, 9007199254740992]"), false,
			[]string{"line 8", "sizes_kb[1]", "overflows"}},
		{"grid product past the limit",
			withSizes("{from: 1, to: 100, step: 1}") +
				"policies: [give-up, retry, retry+fallback]\nfaults:\n  seed: 1\nfault_rates: [" +
				strings.TrimSuffix(strings.Repeat("0.1, ", 40), ", ") + "]\n", false,
			[]string{"line 8", "sizes_kb", "100 sizes × 3 policies × 40 fault rates", "10000-point limit"}},
		{"huge fleet",
			fleet("1000000000", "20", "1"), false,
			[]string{"line 6", "fleet.total", "10000-point limit"}},
		{"fleet size overflows a byte count",
			fleet("10", "9007199254740992", "1"), false,
			[]string{"line 13", "fleet.templates[0].size_kb", "overflows"}},
		{"fleet weights overflow",
			fleet("10", "20", "9223372036854775807", "9223372036854775807", "2"), false,
			[]string{"line 15", "fleet.templates[1].weight", "sum past"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := Parse([]byte(tc.src), tc.json)
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Parse did not return within 5s")
			}
			if err == nil {
				t.Fatalf("expected an error for:\n%s", tc.src)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}
