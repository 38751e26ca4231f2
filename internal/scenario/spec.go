package scenario

// Scenario specification: the declarative schema, its strict decoder, and
// parse-time validation. Every error names the offending path (and source
// line, for YAML input) so a malformed file fails the invocation before a
// single round runs. See DESIGN.md's "Declarative scenarios" chapter for
// the schema reference.

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"time"

	"tocttou/internal/machine"
	"tocttou/internal/prog"
)

// maxPoints bounds the sweep points one spec may compile to (sizes ×
// policies × fault rates, or fleet.total). It is checked before the grid
// is built, so a file of a few bytes cannot demand an unbounded
// allocation; the shipped specs compile to at most 600 points.
const maxPoints = 10_000

// MaxSizeKB is the largest file size whose byte count fits an int64.
// Every size a spec or a `-sizes` override names is checked against it.
const MaxSizeKB = math.MaxInt64 >> 10

// Spec is a fully decoded and validated scenario file.
type Spec struct {
	Name        string
	Description string
	// Report selects the rendering: "table" (generic, the default),
	// "fig6", or "faultsweep" (the paper-figure renderings of those
	// experiments, which run the shipped specs).
	Report     string
	Machine    machine.Profile
	Rounds     int
	Seed       int64
	SeedStride int64
	Trace      bool

	// Single-workload axes (absent under Fleet).
	Victim   string
	Attacker string
	Syscall  string
	SizesKB  []int

	// Optional grid axes.
	Policies   []Policy
	FaultRates []float64

	Faults   *FaultSpec
	Watchdog time.Duration

	Fleet      *FleetSpec
	Assertions []Assertion
}

// Policy is a resolved robustness policy (built-in by name, or custom).
type Policy struct {
	Label  string
	Robust prog.Robustness
}

// FaultSpec configures the per-point fault plan. With a fault_rates axis
// the *_scale fields multiply each axis rate; without one the *_rate
// fields are absolute probabilities.
type FaultSpec struct {
	Seed              int64
	FSRate            float64
	SemIntrRate       float64
	KillVictimRate    float64
	KillAttackerRate  float64
	FSScale           float64
	SemIntrScale      float64
	KillVictimScale   float64
	KillAttackerScale float64
	SemIntrDelay      time.Duration
	KillWindow        time.Duration
	Restart           bool
	RestartDelay      time.Duration
	scaled            bool // true when *_scale fields drive the plan
}

// FleetSpec generates a deterministic fleet of parameter-jittered victims
// from weighted templates.
type FleetSpec struct {
	Total      int
	JitterSeed int64
	Templates  []Template
}

// Template is one weighted victim/attacker shape in a fleet.
type Template struct {
	Name      string
	Weight    int
	Victim    string
	Attacker  string
	Syscall   string
	SizeMinKB int
	SizeMaxKB int
}

// Assertion is one pass/fail bound on the campaign outcome.
type Assertion struct {
	// Metric names what is measured; see metricNames.
	Metric string
	// Point selects one grid point by index; -1 selects the aggregate.
	Point int
	// Template restricts the aggregate to one fleet template's members.
	Template string
	Min      float64
	Max      float64
	HasMin   bool
	HasMax   bool
	line     int
}

// victimNames and attackerNames are the referencable programs.
var victimNames = map[string]bool{
	"vi": true, "gedit": true, "rpm": true, "vi-fixed": true, "gedit-fixed": true,
}
var attackerNames = map[string]bool{
	"v1": true, "v2": true, "pipelined": true, "flipflop": true, "idle": true,
}

// aggregateMetrics are valid for any selection; pointMetrics additionally
// require a point selector (their per-point summaries don't aggregate).
var aggregateMetrics = map[string]bool{
	"success_rate": true, "successes": true, "rounds": true,
	"victim_errors": true, "attack_errors": true,
	"fs_errors_per_round": true, "sem_interrupts_per_round": true,
	"kills_per_round": true, "restarts_per_round": true,
}
var pointMetrics = map[string]bool{
	"l_mean_us": true, "d_mean_us": true, "window_mean_us": true,
}

// Load reads, parses, and validates a scenario file. Files ending in
// ".json" are decoded as JSON; everything else as the YAML subset. Any
// returned error names the file, the offending path, and (for YAML) the
// source line.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return LoadBytes(path, data)
}

// LoadBytes parses and validates scenario bytes exactly as Load would
// parse the file at path: the extension selects the format and every
// error names path, the offending key, and (for YAML) the source line.
// It is the seam the campaign service decodes submissions through, so a
// server-side rejection carries the identical message a local
// `tocttou -scenario` run prints.
func LoadBytes(path string, data []byte) (*Spec, error) {
	spec, err := Parse(data, strings.HasSuffix(path, ".json"))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	return spec, nil
}

// Parse decodes and validates scenario bytes (exported for tests and
// embedding; Load is the file-path front end).
func Parse(data []byte, asJSON bool) (*Spec, error) {
	var root *node
	var err error
	if asJSON {
		root, err = parseJSON(data)
	} else {
		root, err = parseYAML(data)
	}
	if err != nil {
		return nil, err
	}
	return decodeSpec(root)
}

// specErr formats a validation error with path and, when known, line.
func specErr(n *node, path, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if n != nil && n.line > 0 {
		return fmt.Errorf("line %d: %s: %s", n.line, path, msg)
	}
	return fmt.Errorf("%s: %s", path, msg)
}

// mapR reads a mapping strictly: every key must be consumed, and finish
// rejects the first unknown key by name and line.
type mapR struct {
	n    *node
	path string
	used map[string]bool
}

func asMap(n *node, path string) (*mapR, error) {
	if n == nil || n.kind != mapNode {
		return nil, specErr(n, path, "expected a mapping, got %s", kindOf(n))
	}
	return &mapR{n: n, path: path, used: make(map[string]bool)}, nil
}

func kindOf(n *node) nodeKind {
	if n == nil {
		return nullNode
	}
	return n.kind
}

func (m *mapR) get(key string) *node {
	m.used[key] = true
	return m.n.vals[key]
}

func (m *mapR) child(key string) string {
	if m.path == "" {
		return key
	}
	return m.path + "." + key
}

func (m *mapR) finish() error {
	for _, key := range m.n.keys {
		if !m.used[key] {
			kn := &node{line: m.n.keyLine[key]}
			where := m.path
			if where == "" {
				where = "scenario"
			}
			return specErr(kn, where, "unknown key %q", key)
		}
	}
	return nil
}

// Scalar converters. Each rejects the wrong node shape with a path error.

func decodeString(n *node, path string) (string, error) {
	if kindOf(n) != scalarNode {
		return "", specErr(n, path, "expected a string, got %s", kindOf(n))
	}
	return n.scalar, nil
}

func decodeInt(n *node, path string) (int64, error) {
	if kindOf(n) != scalarNode || n.quoted {
		return 0, specErr(n, path, "expected an integer, got %s", kindOf(n))
	}
	v, err := strconv.ParseInt(n.scalar, 10, 64)
	if err != nil {
		return 0, specErr(n, path, "expected an integer, got %q", n.scalar)
	}
	return v, nil
}

func decodeFloat(n *node, path string) (float64, error) {
	if kindOf(n) != scalarNode || n.quoted {
		return 0, specErr(n, path, "expected a number, got %s", kindOf(n))
	}
	v, err := strconv.ParseFloat(n.scalar, 64)
	if err != nil {
		return 0, specErr(n, path, "expected a number, got %q", n.scalar)
	}
	return v, nil
}

func decodeBool(n *node, path string) (bool, error) {
	if kindOf(n) != scalarNode || n.quoted {
		return false, specErr(n, path, "expected true or false, got %s", kindOf(n))
	}
	switch n.scalar {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, specErr(n, path, "expected true or false, got %q", n.scalar)
}

func decodeSeq(n *node, path string) ([]*node, error) {
	if kindOf(n) != seqNode {
		return nil, specErr(n, path, "expected a sequence, got %s", kindOf(n))
	}
	return n.items, nil
}

// decodeSpec walks the node tree into a Spec, validating as it goes.
func decodeSpec(root *node) (*Spec, error) {
	m, err := asMap(root, "")
	if err != nil {
		return nil, err
	}
	spec := &Spec{SeedStride: 7919, Syscall: "", Report: "table"}

	nameNode := m.get("name")
	if nameNode == nil {
		return nil, specErr(root, "name", "required")
	}
	if spec.Name, err = decodeString(nameNode, "name"); err != nil {
		return nil, err
	}
	if !validName(spec.Name) {
		return nil, specErr(nameNode, "name", "must be non-empty [a-z0-9-_] (got %q)", spec.Name)
	}
	if d := m.get("description"); d != nil {
		if spec.Description, err = decodeString(d, "description"); err != nil {
			return nil, err
		}
	}
	if r := m.get("report"); r != nil {
		if spec.Report, err = decodeString(r, "report"); err != nil {
			return nil, err
		}
		switch spec.Report {
		case "table", "fig6", "faultsweep":
		default:
			return nil, specErr(r, "report", "unknown report %q (have table, fig6, faultsweep)", spec.Report)
		}
	}

	machNode := m.get("machine")
	if machNode == nil {
		return nil, specErr(root, "machine", "required")
	}
	machName, err := decodeString(machNode, "machine")
	if err != nil {
		return nil, err
	}
	prof, ok := machine.ByName(machName)
	if !ok {
		return nil, specErr(machNode, "machine", "unknown machine %q (have up, smp, multicore)", machName)
	}
	spec.Machine = prof

	roundsNode := m.get("rounds")
	if roundsNode == nil {
		return nil, specErr(root, "rounds", "required")
	}
	rounds, err := decodeInt(roundsNode, "rounds")
	if err != nil {
		return nil, err
	}
	if rounds <= 0 {
		return nil, specErr(roundsNode, "rounds", "must be > 0, got %d", rounds)
	}
	spec.Rounds = int(rounds)

	seedNode := m.get("seed")
	if seedNode == nil {
		return nil, specErr(root, "seed", "required")
	}
	if spec.Seed, err = decodeInt(seedNode, "seed"); err != nil {
		return nil, err
	}
	if st := m.get("seed_stride"); st != nil {
		if spec.SeedStride, err = decodeInt(st, "seed_stride"); err != nil {
			return nil, err
		}
		if spec.SeedStride == 0 {
			return nil, specErr(st, "seed_stride", "must be non-zero (every grid point needs its own seed)")
		}
	}
	if tr := m.get("trace"); tr != nil {
		if spec.Trace, err = decodeBool(tr, "trace"); err != nil {
			return nil, err
		}
	}

	if v := m.get("victim"); v != nil {
		if spec.Victim, err = decodeString(v, "victim"); err != nil {
			return nil, err
		}
		if !victimNames[spec.Victim] {
			return nil, specErr(v, "victim", "unknown victim %q (have vi, gedit, rpm, vi-fixed, gedit-fixed)", spec.Victim)
		}
	}
	if a := m.get("attacker"); a != nil {
		if spec.Attacker, err = decodeString(a, "attacker"); err != nil {
			return nil, err
		}
		if !attackerNames[spec.Attacker] {
			return nil, specErr(a, "attacker", "unknown attacker %q (have v1, v2, pipelined, flipflop, idle)", spec.Attacker)
		}
	}
	if s := m.get("syscall"); s != nil {
		if spec.Syscall, err = decodeString(s, "syscall"); err != nil {
			return nil, err
		}
		if spec.Syscall != "chown" && spec.Syscall != "chmod" {
			return nil, specErr(s, "syscall", "unknown syscall %q (have chown, chmod)", spec.Syscall)
		}
	}

	if spec.SizesKB, err = decodeSizes(m); err != nil {
		return nil, err
	}
	if spec.Policies, err = decodePolicies(m.get("policies"), m.child("policies")); err != nil {
		return nil, err
	}
	if fr := m.get("fault_rates"); fr != nil {
		items, err := decodeSeq(fr, "fault_rates")
		if err != nil {
			return nil, err
		}
		if len(items) == 0 {
			return nil, specErr(fr, "fault_rates", "needs at least one rate")
		}
		for i, item := range items {
			p := fmt.Sprintf("fault_rates[%d]", i)
			rate, err := decodeFloat(item, p)
			if err != nil {
				return nil, err
			}
			if err := checkRate(item, p, rate); err != nil {
				return nil, err
			}
			spec.FaultRates = append(spec.FaultRates, rate)
		}
	}
	if f := m.get("faults"); f != nil {
		if spec.Faults, err = decodeFaults(f, "faults", len(spec.FaultRates) > 0); err != nil {
			return nil, err
		}
	}
	if w := m.get("watchdog_ms"); w != nil {
		ms, err := decodeInt(w, "watchdog_ms")
		if err != nil {
			return nil, err
		}
		if ms < 0 {
			return nil, specErr(w, "watchdog_ms", "must be >= 0, got %d", ms)
		}
		spec.Watchdog = time.Duration(ms) * time.Millisecond
	}
	if fl := m.get("fleet"); fl != nil {
		if spec.Fleet, err = decodeFleet(fl, "fleet"); err != nil {
			return nil, err
		}
	}
	if as := m.get("assertions"); as != nil {
		if spec.Assertions, err = decodeAssertions(as, "assertions"); err != nil {
			return nil, err
		}
	}
	if err := m.finish(); err != nil {
		return nil, err
	}
	if err := spec.validate(root); err != nil {
		return nil, err
	}
	return spec, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}

// decodeSizes reads sizes_kb: either an explicit list or a
// {from, to, step} range.
func decodeSizes(m *mapR) ([]int, error) {
	n := m.get("sizes_kb")
	if n == nil {
		return nil, nil
	}
	if n.kind == mapNode {
		r, err := asMap(n, "sizes_kb")
		if err != nil {
			return nil, err
		}
		get := func(key string) (int64, error) {
			kn := r.get(key)
			if kn == nil {
				return 0, specErr(n, "sizes_kb."+key, "required in a size range")
			}
			return decodeInt(kn, "sizes_kb."+key)
		}
		from, err := get("from")
		if err != nil {
			return nil, err
		}
		to, err := get("to")
		if err != nil {
			return nil, err
		}
		step, err := get("step")
		if err != nil {
			return nil, err
		}
		if err := r.finish(); err != nil {
			return nil, err
		}
		if from <= 0 || to < from || step <= 0 {
			return nil, specErr(n, "sizes_kb", "range needs 0 < from <= to and step > 0 (got from=%d to=%d step=%d)", from, to, step)
		}
		if err := checkSizeKB(n, "sizes_kb.to", to); err != nil {
			return nil, err
		}
		// Count the range before building it: to-from cannot overflow
		// (0 < from <= to), and neither can from+i*step <= to.
		count := (to-from)/step + 1
		if count > maxPoints {
			return nil, specErr(n, "sizes_kb", "range from=%d to=%d step=%d has %d sizes, more than the %d-point limit", from, to, step, count, maxPoints)
		}
		sizes := make([]int, count)
		for i := range sizes {
			sizes[i] = int(from + int64(i)*step)
		}
		return sizes, nil
	}
	items, err := decodeSeq(n, "sizes_kb")
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, specErr(n, "sizes_kb", "needs at least one size")
	}
	sizes := make([]int, len(items))
	for i, item := range items {
		p := fmt.Sprintf("sizes_kb[%d]", i)
		kb, err := decodeInt(item, p)
		if err != nil {
			return nil, err
		}
		if err := checkSizeKB(item, p, kb); err != nil {
			return nil, err
		}
		sizes[i] = int(kb)
	}
	return sizes, nil
}

// checkSizeKB bounds one file size: positive, and a byte count that
// fits an int64.
func checkSizeKB(n *node, path string, kb int64) error {
	if kb <= 0 {
		return specErr(n, path, "must be > 0 KB, got %d", kb)
	}
	if kb > MaxSizeKB {
		return specErr(n, path, "%d KB overflows a byte count (max %d KB)", kb, int64(MaxSizeKB))
	}
	return nil
}

// checkRate bounds one fault_rates entry to [0, 1].
func checkRate(n *node, path string, rate float64) error {
	if rate < 0 || rate > 1 {
		return specErr(n, path, "must be in [0, 1], got %v", rate)
	}
	return nil
}

// decodePolicies reads the policies axis: built-in names or custom
// {name, retries, backoff_us, fallback} mappings.
func decodePolicies(n *node, path string) ([]Policy, error) {
	if n == nil {
		return nil, nil
	}
	items, err := decodeSeq(n, path)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, specErr(n, path, "needs at least one policy")
	}
	builtins := make(map[string]prog.Robustness)
	builtins["give-up"] = prog.Robustness{}
	builtins["retry"] = prog.Robustness{Retries: 4, Backoff: 20 * time.Microsecond}
	builtins["retry+fallback"] = prog.Robustness{Retries: 4, Backoff: 20 * time.Microsecond, Fallback: true}
	var out []Policy
	seen := make(map[string]bool)
	for i, item := range items {
		p := fmt.Sprintf("%s[%d]", path, i)
		var pol Policy
		switch kindOf(item) {
		case scalarNode:
			rb, ok := builtins[item.scalar]
			if !ok {
				return nil, specErr(item, p, "unknown policy %q (have give-up, retry, retry+fallback, or a custom mapping)", item.scalar)
			}
			pol = Policy{Label: item.scalar, Robust: rb}
		case mapNode:
			m, err := asMap(item, p)
			if err != nil {
				return nil, err
			}
			nameNode := m.get("name")
			if nameNode == nil {
				return nil, specErr(item, p+".name", "required for a custom policy")
			}
			if pol.Label, err = decodeString(nameNode, p+".name"); err != nil {
				return nil, err
			}
			if r := m.get("retries"); r != nil {
				v, err := decodeInt(r, p+".retries")
				if err != nil {
					return nil, err
				}
				if v < 0 {
					return nil, specErr(r, p+".retries", "must be >= 0, got %d", v)
				}
				pol.Robust.Retries = int(v)
			}
			if b := m.get("backoff_us"); b != nil {
				v, err := decodeInt(b, p+".backoff_us")
				if err != nil {
					return nil, err
				}
				if v < 0 {
					return nil, specErr(b, p+".backoff_us", "must be >= 0, got %d", v)
				}
				pol.Robust.Backoff = time.Duration(v) * time.Microsecond
			}
			if fb := m.get("fallback"); fb != nil {
				if pol.Robust.Fallback, err = decodeBool(fb, p+".fallback"); err != nil {
					return nil, err
				}
			}
			if err := m.finish(); err != nil {
				return nil, err
			}
		default:
			return nil, specErr(item, p, "expected a policy name or mapping, got %s", kindOf(item))
		}
		if seen[pol.Label] {
			return nil, specErr(item, p, "duplicate policy %q", pol.Label)
		}
		seen[pol.Label] = true
		out = append(out, pol)
	}
	return out, nil
}

// decodeFaults reads the fault plan block. scaled selects which rate
// fields are legal: *_scale with a fault_rates axis, *_rate without.
func decodeFaults(n *node, path string, scaled bool) (*FaultSpec, error) {
	m, err := asMap(n, path)
	if err != nil {
		return nil, err
	}
	fs := &FaultSpec{scaled: scaled}
	seedNode := m.get("seed")
	if seedNode == nil {
		return nil, specErr(n, path+".seed", "required (the fault stream must be pinned for reproducibility)")
	}
	if fs.Seed, err = decodeInt(seedNode, path+".seed"); err != nil {
		return nil, err
	}
	rate := func(key string, dst *float64, max float64) error {
		rn := m.get(key)
		if rn == nil {
			return nil
		}
		p := path + "." + key
		v, err := decodeFloat(rn, p)
		if err != nil {
			return err
		}
		if v < 0 || v > max {
			return specErr(rn, p, "must be in [0, %v], got %v", max, v)
		}
		*dst = v
		return nil
	}
	if scaled {
		for _, key := range []string{"fs_rate", "sem_intr_rate", "kill_victim_rate", "kill_attacker_rate"} {
			if rn := m.get(key); rn != nil {
				return nil, specErr(rn, path+"."+key, "absolute rates conflict with the fault_rates axis; use %s_scale", strings.TrimSuffix(key, "_rate"))
			}
		}
		// Scales may exceed 1 (a rate axis entry of 0.1 with scale 2 is
		// rate 0.2) but the product is re-checked at compile time.
		if err := rate("fs_scale", &fs.FSScale, 1e9); err != nil {
			return nil, err
		}
		if err := rate("sem_intr_scale", &fs.SemIntrScale, 1e9); err != nil {
			return nil, err
		}
		if err := rate("kill_victim_scale", &fs.KillVictimScale, 1e9); err != nil {
			return nil, err
		}
		if err := rate("kill_attacker_scale", &fs.KillAttackerScale, 1e9); err != nil {
			return nil, err
		}
	} else {
		for _, key := range []string{"fs_scale", "sem_intr_scale", "kill_victim_scale", "kill_attacker_scale"} {
			if rn := m.get(key); rn != nil {
				return nil, specErr(rn, path+"."+key, "scales require a fault_rates axis; use %s_rate", strings.TrimSuffix(key, "_scale"))
			}
		}
		if err := rate("fs_rate", &fs.FSRate, 1); err != nil {
			return nil, err
		}
		if err := rate("sem_intr_rate", &fs.SemIntrRate, 1); err != nil {
			return nil, err
		}
		if err := rate("kill_victim_rate", &fs.KillVictimRate, 1); err != nil {
			return nil, err
		}
		if err := rate("kill_attacker_rate", &fs.KillAttackerRate, 1); err != nil {
			return nil, err
		}
	}
	dur := func(key string, unit time.Duration, dst *time.Duration) error {
		dn := m.get(key)
		if dn == nil {
			return nil
		}
		p := path + "." + key
		v, err := decodeInt(dn, p)
		if err != nil {
			return err
		}
		if v < 0 {
			return specErr(dn, p, "must be >= 0, got %d", v)
		}
		*dst = time.Duration(v) * unit
		return nil
	}
	if err := dur("sem_intr_delay_us", time.Microsecond, &fs.SemIntrDelay); err != nil {
		return nil, err
	}
	if err := dur("kill_window_ms", time.Millisecond, &fs.KillWindow); err != nil {
		return nil, err
	}
	if err := dur("restart_delay_us", time.Microsecond, &fs.RestartDelay); err != nil {
		return nil, err
	}
	if r := m.get("restart"); r != nil {
		if fs.Restart, err = decodeBool(r, path+".restart"); err != nil {
			return nil, err
		}
	}
	return fs, m.finish()
}

// decodeFleet reads the fleet generator block.
func decodeFleet(n *node, path string) (*FleetSpec, error) {
	m, err := asMap(n, path)
	if err != nil {
		return nil, err
	}
	fl := &FleetSpec{}
	totalNode := m.get("total")
	if totalNode == nil {
		return nil, specErr(n, path+".total", "required")
	}
	total, err := decodeInt(totalNode, path+".total")
	if err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, specErr(totalNode, path+".total", "must be > 0, got %d", total)
	}
	if total > maxPoints {
		return nil, specErr(totalNode, path+".total", "%d points exceed the %d-point limit", total, maxPoints)
	}
	fl.Total = int(total)
	jsNode := m.get("jitter_seed")
	if jsNode == nil {
		return nil, specErr(n, path+".jitter_seed", "required (the jitter stream must be pinned for reproducibility)")
	}
	if fl.JitterSeed, err = decodeInt(jsNode, path+".jitter_seed"); err != nil {
		return nil, err
	}
	tmplNode := m.get("templates")
	if tmplNode == nil {
		return nil, specErr(n, path+".templates", "required")
	}
	items, err := decodeSeq(tmplNode, path+".templates")
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, specErr(tmplNode, path+".templates", "needs at least one template")
	}
	seen := make(map[string]*node)
	weights := 0
	for i, item := range items {
		p := fmt.Sprintf("%s.templates[%d]", path, i)
		t, err := decodeTemplate(item, p)
		if err != nil {
			return nil, err
		}
		if seen[t.Name] != nil {
			return nil, specErr(item, p+".name", "duplicate template name %q", t.Name)
		}
		if t.Weight > math.MaxInt-weights {
			return nil, specErr(item.vals["weight"], p+".weight", "template weights sum past %d", math.MaxInt)
		}
		weights += t.Weight
		seen[t.Name] = item
		fl.Templates = append(fl.Templates, t)
	}
	return fl, m.finish()
}

func decodeTemplate(n *node, path string) (Template, error) {
	var t Template
	m, err := asMap(n, path)
	if err != nil {
		return t, err
	}
	nameNode := m.get("name")
	if nameNode == nil {
		return t, specErr(n, path+".name", "required")
	}
	if t.Name, err = decodeString(nameNode, path+".name"); err != nil {
		return t, err
	}
	if !validName(t.Name) {
		return t, specErr(nameNode, path+".name", "must be non-empty [a-z0-9-_] (got %q)", t.Name)
	}
	weightNode := m.get("weight")
	if weightNode == nil {
		return t, specErr(n, path+".weight", "required")
	}
	w, err := decodeInt(weightNode, path+".weight")
	if err != nil {
		return t, err
	}
	if w <= 0 {
		return t, specErr(weightNode, path+".weight", "must be > 0, got %d", w)
	}
	t.Weight = int(w)
	vNode := m.get("victim")
	if vNode == nil {
		return t, specErr(n, path+".victim", "required")
	}
	if t.Victim, err = decodeString(vNode, path+".victim"); err != nil {
		return t, err
	}
	if !victimNames[t.Victim] {
		return t, specErr(vNode, path+".victim", "unknown victim %q", t.Victim)
	}
	aNode := m.get("attacker")
	if aNode == nil {
		return t, specErr(n, path+".attacker", "required")
	}
	if t.Attacker, err = decodeString(aNode, path+".attacker"); err != nil {
		return t, err
	}
	if !attackerNames[t.Attacker] {
		return t, specErr(aNode, path+".attacker", "unknown attacker %q", t.Attacker)
	}
	if s := m.get("syscall"); s != nil {
		if t.Syscall, err = decodeString(s, path+".syscall"); err != nil {
			return t, err
		}
		if t.Syscall != "chown" && t.Syscall != "chmod" {
			return t, specErr(s, path+".syscall", "unknown syscall %q (have chown, chmod)", t.Syscall)
		}
	}
	szNode := m.get("size_kb")
	if szNode == nil {
		return t, specErr(n, path+".size_kb", "required (a fixed KB count or {min, max})")
	}
	switch kindOf(szNode) {
	case scalarNode:
		kb, err := decodeInt(szNode, path+".size_kb")
		if err != nil {
			return t, err
		}
		if err := checkSizeKB(szNode, path+".size_kb", kb); err != nil {
			return t, err
		}
		t.SizeMinKB, t.SizeMaxKB = int(kb), int(kb)
	case mapNode:
		r, err := asMap(szNode, path+".size_kb")
		if err != nil {
			return t, err
		}
		minNode, maxNode := r.get("min"), r.get("max")
		if minNode == nil || maxNode == nil {
			return t, specErr(szNode, path+".size_kb", "a jitter range needs both min and max")
		}
		mn, err := decodeInt(minNode, path+".size_kb.min")
		if err != nil {
			return t, err
		}
		mx, err := decodeInt(maxNode, path+".size_kb.max")
		if err != nil {
			return t, err
		}
		if err := r.finish(); err != nil {
			return t, err
		}
		if mn <= 0 || mx < mn {
			return t, specErr(szNode, path+".size_kb", "needs 0 < min <= max (got min=%d max=%d)", mn, mx)
		}
		if err := checkSizeKB(maxNode, path+".size_kb.max", mx); err != nil {
			return t, err
		}
		t.SizeMinKB, t.SizeMaxKB = int(mn), int(mx)
	default:
		return t, specErr(szNode, path+".size_kb", "expected a KB count or {min, max}, got %s", kindOf(szNode))
	}
	return t, m.finish()
}

// decodeAssertions reads the pass/fail bounds.
func decodeAssertions(n *node, path string) ([]Assertion, error) {
	items, err := decodeSeq(n, path)
	if err != nil {
		return nil, err
	}
	var out []Assertion
	for i, item := range items {
		p := fmt.Sprintf("%s[%d]", path, i)
		m, err := asMap(item, p)
		if err != nil {
			return nil, err
		}
		a := Assertion{Point: -1, line: item.line}
		metricNode := m.get("metric")
		if metricNode == nil {
			return nil, specErr(item, p+".metric", "required")
		}
		if a.Metric, err = decodeString(metricNode, p+".metric"); err != nil {
			return nil, err
		}
		if !aggregateMetrics[a.Metric] && !pointMetrics[a.Metric] {
			return nil, specErr(metricNode, p+".metric", "unknown metric %q (have %s)", a.Metric, metricList())
		}
		if pt := m.get("point"); pt != nil {
			v, err := decodeInt(pt, p+".point")
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, specErr(pt, p+".point", "must be >= 0, got %d", v)
			}
			a.Point = int(v)
		}
		if tm := m.get("template"); tm != nil {
			if a.Template, err = decodeString(tm, p+".template"); err != nil {
				return nil, err
			}
		}
		if a.Point >= 0 && a.Template != "" {
			return nil, specErr(item, p, "point and template selectors are mutually exclusive")
		}
		if pointMetrics[a.Metric] && a.Point < 0 {
			return nil, specErr(metricNode, p+".metric", "%s is a per-point summary; add a point selector", a.Metric)
		}
		if mn := m.get("min"); mn != nil {
			if a.Min, err = decodeFloat(mn, p+".min"); err != nil {
				return nil, err
			}
			a.HasMin = true
		}
		if mx := m.get("max"); mx != nil {
			if a.Max, err = decodeFloat(mx, p+".max"); err != nil {
				return nil, err
			}
			a.HasMax = true
		}
		if !a.HasMin && !a.HasMax {
			return nil, specErr(item, p, "needs min, max, or both")
		}
		if a.HasMin && a.HasMax && a.Min > a.Max {
			return nil, specErr(item, p, "min %v > max %v can never pass", a.Min, a.Max)
		}
		if err := m.finish(); err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func metricList() string {
	names := make([]string, 0, len(aggregateMetrics)+len(pointMetrics))
	for _, n := range []string{
		"success_rate", "successes", "rounds", "victim_errors", "attack_errors",
		"fs_errors_per_round", "sem_interrupts_per_round", "kills_per_round",
		"restarts_per_round", "l_mean_us", "d_mean_us", "window_mean_us",
	} {
		names = append(names, n)
	}
	return strings.Join(names, ", ")
}

// validate performs the cross-field checks that individual decoders
// cannot: axis compatibility, report requirements, and assertion
// selectors against the compiled grid size.
func (s *Spec) validate(root *node) error {
	if s.Fleet != nil {
		for _, key := range []string{"victim", "attacker", "syscall", "sizes_kb", "policies", "fault_rates"} {
			if root.vals[key] != nil {
				return specErr(&node{line: root.keyLine[key]}, key, "conflicts with fleet (templates carry the workload axes)")
			}
		}
		if s.Report != "table" {
			return specErr(&node{line: root.keyLine["report"]}, "report", "%q requires a fixed grid; fleet scenarios use the default table report", s.Report)
		}
	} else {
		if s.Victim == "" {
			return specErr(root, "victim", "required (or use a fleet)")
		}
		if s.Attacker == "" {
			return specErr(root, "attacker", "required (or use a fleet)")
		}
		if len(s.SizesKB) == 0 {
			return specErr(root, "sizes_kb", "required (or use a fleet)")
		}
	}
	if s.Syscall == "" {
		switch s.Victim {
		case "gedit", "gedit-fixed":
			s.Syscall = "chmod"
		default:
			s.Syscall = "chown"
		}
	}
	if len(s.Policies) > 0 && (s.Victim != "vi" || s.Attacker != "v1") {
		return specErr(&node{line: root.keyLine["policies"]}, "policies",
			"robustness policies apply only to victim vi with attacker v1 (got %s/%s)", s.Victim, s.Attacker)
	}
	if len(s.FaultRates) > 0 && s.Faults == nil {
		return specErr(&node{line: root.keyLine["fault_rates"]}, "fault_rates", "requires a faults block with the plan's *_scale fields")
	}
	switch s.Report {
	case "fig6":
		if len(s.Policies) > 0 || len(s.FaultRates) > 0 {
			return specErr(&node{line: root.keyLine["report"]}, "report", "fig6 charts a pure size axis; drop policies/fault_rates")
		}
		if s.Victim != "vi" || s.Attacker != "v1" {
			return specErr(&node{line: root.keyLine["report"]}, "report", "fig6 is the vi/v1 sweep (got %s/%s)", s.Victim, s.Attacker)
		}
	case "faultsweep":
		if len(s.Policies) == 0 || len(s.FaultRates) == 0 {
			return specErr(&node{line: root.keyLine["report"]}, "report", "faultsweep needs both policies and fault_rates axes")
		}
		if len(s.SizesKB) != 1 {
			return specErr(&node{line: root.keyLine["report"]}, "report", "faultsweep uses exactly one file size, got %d", len(s.SizesKB))
		}
	}
	npoints := s.gridSize()
	if npoints > maxPoints {
		return specErr(&node{line: root.keyLine["sizes_kb"]}, "sizes_kb",
			"%d sizes × %d policies × %d fault rates exceed the %d-point limit",
			len(s.SizesKB), len(s.Policies), len(s.FaultRates), maxPoints)
	}
	// Point i runs at seed + i*stride, which wraps int64: two points
	// share a seed when the stride's trailing zero bits leave fewer than
	// bits.Len(n-1) bits for i.
	if npoints > 1 && bits.TrailingZeros64(uint64(s.SeedStride))+bits.Len(uint(npoints-1)) > 64 {
		return specErr(&node{line: root.keyLine["seed_stride"]}, "seed_stride",
			"%d repeats a seed within the %d-point grid (seed + i*stride wraps int64)", s.SeedStride, npoints)
	}
	for i, a := range s.Assertions {
		p := fmt.Sprintf("assertions[%d]", i)
		if a.Point >= npoints {
			return specErr(&node{line: a.line}, p+".point", "index %d out of range (the scenario compiles to %d points)", a.Point, npoints)
		}
		if a.Template != "" {
			if s.Fleet == nil {
				return specErr(&node{line: a.line}, p+".template", "template selectors require a fleet")
			}
			found := false
			for _, t := range s.Fleet.Templates {
				if t.Name == a.Template {
					found = true
					break
				}
			}
			if !found {
				return specErr(&node{line: a.line}, p+".template", "unknown template %q", a.Template)
			}
		}
	}
	return nil
}

// SetSizes replaces the sizes_kb axis of a validated spec, applying the
// checks a parsed sizes_kb list gets.
func (s *Spec) SetSizes(sizes []int) error {
	if len(sizes) == 0 {
		return specErr(nil, "sizes_kb", "needs at least one size")
	}
	for i, kb := range sizes {
		if err := checkSizeKB(nil, fmt.Sprintf("sizes_kb[%d]", i), int64(kb)); err != nil {
			return err
		}
	}
	s.SizesKB = sizes
	return s.validate(&node{})
}

// SetFaultRates replaces the fault_rates axis of a validated spec,
// applying the checks a parsed fault_rates list gets.
func (s *Spec) SetFaultRates(rates []float64) error {
	if len(rates) == 0 {
		return specErr(nil, "fault_rates", "needs at least one rate")
	}
	for i, rate := range rates {
		if err := checkRate(nil, fmt.Sprintf("fault_rates[%d]", i), rate); err != nil {
			return err
		}
	}
	s.FaultRates = rates
	return s.validate(&node{})
}

// gridSize is the number of sweep points the spec compiles to, saturated
// at maxPoints+1 so that no product of axis lengths can overflow.
func (s *Spec) gridSize() int {
	if s.Fleet != nil {
		return s.Fleet.Total
	}
	n := 1
	for _, axis := range []int{len(s.SizesKB), len(s.Policies), len(s.FaultRates)} {
		if axis == 0 {
			continue
		}
		if n > maxPoints/axis {
			return maxPoints + 1
		}
		n *= axis
	}
	return n
}
