package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tocttou/internal/attack"
	"tocttou/internal/core"
	"tocttou/internal/defense"
	"tocttou/internal/fs"
	"tocttou/internal/machine"
	"tocttou/internal/prog"
	"tocttou/internal/scenario"
	"tocttou/internal/sim"
	"tocttou/internal/userland"
	"tocttou/internal/victim"
)

// keyTestProgram is a program type no scenario uses: swapping it into
// an interface field must change the key.
type keyTestProgram struct{}

func (keyTestProgram) Name() string                       { return "key-test" }
func (keyTestProgram) Run(*userland.Libc, prog.Env) error { return nil }

// forEachLeaf calls fn with every settable leaf under v, depth first:
// scalars, strings, slices, funcs, interfaces and nil pointers. Non-nil
// pointers and interfaces are followed to what they hold (an interface
// is a leaf too: its dynamic value can be swapped).
func forEachLeaf(v reflect.Value, name string, fn func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				forEachLeaf(v.Field(i), name+"."+f.Name, fn)
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			fn(name, v)
			return
		}
		forEachLeaf(v.Elem(), name, fn)
	case reflect.Interface:
		fn(name, v)
		if !v.IsNil() && v.Elem().Kind() == reflect.Pointer {
			forEachLeaf(v.Elem(), name, fn)
		}
	default:
		fn(name, v)
	}
}

// perturb changes a leaf to a different value of its type.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		if !v.IsNil() {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		typ := v.Type()
		v.Set(reflect.MakeFunc(typ, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, typ.NumOut())
			for i := range out {
				out[i] = reflect.Zero(typ.Out(i))
			}
			return out
		}))
	case reflect.Interface:
		switch v.Type() {
		case reflect.TypeOf((*prog.Program)(nil)).Elem():
			v.Set(reflect.ValueOf(keyTestProgram{}))
		case reflect.TypeOf((*sim.Chooser)(nil)).Elem():
			v.Set(reflect.ValueOf(sim.RandomChooser{}))
		default:
			t.Fatalf("%s: no perturbation for interface %v; teach the test one", name, v.Type())
		}
	default:
		t.Fatalf("%s: no perturbation for kind %v; teach the test one", name, v.Kind())
	}
}

// checkEveryLeafChangesKey perturbs, one at a time, every leaf of a
// freshly built point under root and requires each to change PointKey.
// It returns the number of leaves checked.
func checkEveryLeafChangesKey(t *testing.T, label string, build func() core.SweepPoint, root func(*core.SweepPoint) reflect.Value) int {
	t.Helper()
	base := core.PointKey(build())
	for k := 0; ; k++ {
		p := build()
		name, n := "", 0
		forEachLeaf(root(&p), label, func(leaf string, v reflect.Value) {
			if n == k {
				perturb(t, leaf, v)
				name = leaf
			}
			n++
		})
		if name == "" {
			return k
		}
		if key := core.PointKey(p); key == base {
			t.Errorf("perturbing %s left PointKey unchanged", name)
		}
	}
}

func keyTestPoint() core.SweepPoint {
	paths := core.DefaultPaths()
	return core.SweepPoint{
		Rounds: 30,
		Scenario: core.Scenario{
			Machine:  machine.SMP2(),
			Victim:   victim.NewVi(),
			Attacker: attack.NewV1(),
			FileSize: 100 << 10,
			Seed:     4242,
			Paths:    &paths,
		},
	}
}

// TestPointKeyCoversEveryField enumerates core.Scenario (machine.Profile,
// fault plan and fixture paths included) and every in-tree victim and
// attacker by reflection: a field the key does not cover fails here the
// day it is added.
func TestPointKeyCoversEveryField(t *testing.T) {
	n := checkEveryLeafChangesKey(t, "SweepPoint", keyTestPoint,
		func(p *core.SweepPoint) reflect.Value { return reflect.ValueOf(p).Elem() })
	if min := reflect.TypeOf(core.Scenario{}).NumField() + reflect.TypeOf(machine.Profile{}).NumField(); n < min {
		t.Errorf("checked %d leaves, want at least %d (every Scenario and Profile field)", n, min)
	}

	programs := map[string]func() prog.Program{
		"vi":          func() prog.Program { return victim.NewVi() },
		"gedit":       func() prog.Program { return victim.NewGedit() },
		"mailer":      func() prog.Program { return victim.NewMailer() },
		"rpm":         func() prog.Program { return victim.NewAlwaysSuspended() },
		"vi-fixed":    func() prog.Program { return victim.NewViFixed() },
		"gedit-fixed": func() prog.Program { return victim.NewGeditFixed() },
		"session":     func() prog.Program { return victim.NewSession(victim.NewGedit(), 3) },
		"v1":          func() prog.Program { return attack.NewV1() },
		"v2":          func() prog.Program { return attack.NewV2() },
		"pipelined":   func() prog.Program { return attack.NewPipelined() },
		"flipflop":    func() prog.Program { return attack.NewFlipFlop() },
	}
	for name, ctor := range programs {
		build := func() core.SweepPoint {
			p := keyTestPoint()
			p.Scenario.Victim = ctor()
			return p
		}
		root := func(p *core.SweepPoint) reflect.Value { return reflect.ValueOf(p.Scenario.Victim) }
		if n := checkEveryLeafChangesKey(t, name, build, root); n == 0 {
			t.Errorf("%s: no exported field checked", name)
		}
	}

	// Programs of different types never share a key, fields or not.
	p, q := keyTestPoint(), keyTestPoint()
	p.Scenario.Attacker, q.Scenario.Attacker = attack.Idle{}, keyTestProgram{}
	kp := core.PointKey(p)
	kq := core.PointKey(q)
	if kp == kq {
		t.Error("two field-less attacker types share a key")
	}
}

// TestPointKeyCodeIsInexact pins that the key records the hooks it
// cannot encode by presence only: setting a hook changes the key, and
// two hooks with different behavior give the same key.
func TestPointKeyCodeIsInexact(t *testing.T) {
	plain := core.PointKey(keyTestPoint())
	for name, set := range map[string][2]func(*core.Scenario){
		"SuccessCheck": {
			func(sc *core.Scenario) { sc.SuccessCheck = func(*fs.FS, core.Paths, int) bool { return true } },
			func(sc *core.Scenario) { sc.SuccessCheck = func(*fs.FS, core.Paths, int) bool { return false } },
		},
		"NewGuard": {
			func(sc *core.Scenario) { sc.NewGuard = func() fs.Guard { return nil } },
			func(sc *core.Scenario) { sc.NewGuard = func() fs.Guard { return defense.New(defense.Enforce) } },
		},
		"Chooser": {
			func(sc *core.Scenario) { sc.Chooser = sim.RandomChooser{} },
			func(sc *core.Scenario) { sc.Chooser = &sim.ScriptChooser{Script: []int{1}} },
		},
	} {
		var keys [2]string
		for i, mutate := range set {
			p := keyTestPoint()
			mutate(&p.Scenario)
			keys[i] = core.PointKey(p)
		}
		if keys[0] == plain {
			t.Errorf("%s set: key equals the plain point's", name)
		}
		if keys[0] != keys[1] {
			t.Errorf("%s: two hooks gave different keys; code must be keyed by presence only", name)
		}
	}
}

func compileFile(t *testing.T, path string) *scenario.Compiled {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return compileSpec(t, filepath.Base(path), data)
}

func compileSpec(t *testing.T, filename string, data []byte) *scenario.Compiled {
	t.Helper()
	spec, err := scenario.LoadBytes(filename, data)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

// TestPointKeyStableAcrossCompiles compiles the shipped scenarios twice:
// every program pointer differs between the two grids, so equal keys
// mean no address leaked into the encoding — the property a worker
// process recompiling the same spec relies on.
func TestPointKeyStableAcrossCompiles(t *testing.T) {
	for _, file := range []string{"fig6.yaml", "faultsweep.yaml", "fleet.yaml"} {
		path := filepath.Join("..", "..", "examples", "scenarios", file)
		a, b := compileFile(t, path), compileFile(t, path)
		for i := range a.Points {
			ka := core.PointKey(a.Points[i])
			kb := core.PointKey(b.Points[i])
			if ka != kb {
				t.Fatalf("%s point %d: keys of two compiles differ:\n%s\n%s", file, i, ka, kb)
			}
		}
	}
}

// policySpec is a one-point faulty vi/v1 campaign under a custom
// robustness policy. With retries 0 it fails all 40 rounds; with
// retries 4 it wins 39 — so an identity that ignores the policy serves
// one's results for the other.
func policySpec(retries, backoffUS int) []byte {
	return []byte(fmt.Sprintf(`name: policy-key
machine: smp
rounds: 40
seed: 6007
seed_stride: 7121
victim: vi
attacker: v1
sizes_kb: [100]
policies:
  - name: custom
    retries: %d
    backoff_us: %d
fault_rates: [0.2]
faults:
  seed: 9973
  fs_scale: 1
  sem_intr_scale: 1
  kill_victim_scale: 0.5
  kill_attacker_scale: 0.5
  sem_intr_delay_us: 1
  kill_window_ms: 4
  restart: true
watchdog_ms: 5000
`, retries, backoffUS))
}

// TestPointKeySeparatesProgramParameters is the regression test for
// identities that named a program without its parameters: specs that
// differ only in a custom policy's retries or backoff must get distinct
// fingerprints, and one's checkpoint must be rejected by the other.
func TestPointKeySeparatesProgramParameters(t *testing.T) {
	base := compileSpec(t, "policy.yaml", policySpec(0, 20))
	for name, data := range map[string][]byte{
		"retries": policySpec(4, 20),
		"backoff": policySpec(0, 21),
	} {
		other := compileSpec(t, "policy.yaml", data)
		if core.SweepFingerprint(base.Points, core.AdaptiveStop{}) == core.SweepFingerprint(other.Points, core.AdaptiveStop{}) {
			t.Errorf("%s: sweeps share a SweepFingerprint", name)
		}
		if core.PointFingerprint(base.Points[0]) == core.PointFingerprint(other.Points[0]) {
			t.Errorf("%s: points share a PointFingerprint", name)
		}
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		if _, _, err := core.RunSweepPointsCheckpoint(base.Points, core.SweepOptions{}, path); err != nil {
			t.Fatalf("%s: checkpointed base run: %v", name, err)
		}
		_, _, err := core.RunSweepPointsCheckpoint(other.Points, core.SweepOptions{}, path)
		if err == nil || !strings.Contains(err.Error(), "different sweep configuration") {
			t.Errorf("%s: resuming the other spec's checkpoint: err = %v, want a fingerprint rejection", name, err)
		}
	}
}
