package core

// The point key: one canonical identity for a sweep point. Every round
// is a pure function of its scenario and seed, so a point is fully
// identified by its defaulted configuration and round budget — and
// every identity the engine trusts derives from this one encoding:
// PointFingerprint and SweepFingerprint hash it, and through those the
// checkpoint header, the worker fleet's lease checks and campaignd's job
// ids.
//
// The encoding follows the scenario by value: every plain field, the
// full machine profile and the victim and attacker programs, pointers
// and interfaces followed to what they hold. It never contains an
// address and never depends on map order, so a worker process that
// recompiles the same spec computes the same key. Code cannot be
// encoded: SuccessCheck, NewGuard, Chooser and func-valued program
// fields contribute only their presence.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strconv"
	"sync"
)

// PointKey returns the canonical encoding of a point's result-
// determining configuration. Two points with equal keys run
// bit-identical campaigns, unless they carry code (a hook, a chooser, a
// func-valued program field) whose behavior the key records only by
// presence.
func PointKey(p SweepPoint) string {
	var w keyWriter
	w.point(p)
	return string(w.b)
}

// PointFingerprint is the FNV-1a hash of PointKey. The worker fleet tags
// every committed result with it, so the supervisor can verify a
// requeued lease's completions against its own view of the grid.
func PointFingerprint(p SweepPoint) uint64 {
	var w keyWriter
	w.point(p)
	return fnv64a(w.b)
}

// SweepFingerprint is the FNV-1a hash of a sweep's point keys — the
// value the checkpoint header embeds. The worker fleet's load check and
// campaignd's job ids key on it: two sweeps with equal fingerprints run
// bit-identical campaigns, modulo the code the keys record only by
// presence.
func SweepFingerprint(points []SweepPoint) uint64 {
	sweep, _ := Fingerprints(points)
	return sweep
}

// Fingerprints returns SweepFingerprint and every point's
// PointFingerprint, encoding each key once. The keys stream through one
// reused buffer: no key outlives its hashing. The "v2" tag names the key
// encoding; checkpoint files carry their own format version.
func Fingerprints(points []SweepPoint) (sweep uint64, perPoint []uint64) {
	h := fnv.New64a()
	// "adaptive={0 0 0}" is what the removed early-stop setting printed
	// when off; it stays so stored fingerprints and job ids remain valid.
	fmt.Fprintf(h, "v2 n=%d adaptive={0 0 0}|", len(points))
	perPoint = make([]uint64, len(points))
	var w keyWriter
	for i, p := range points {
		w.point(p)
		h.Write(w.b)
		h.Write([]byte{'|'})
		perPoint[i] = fnv64a(w.b)
	}
	return h.Sum64(), perPoint
}

// fnv64a is the FNV-1a hash of b.
func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// keyWriter appends the canonical encoding of a value to b.
type keyWriter struct {
	b []byte
	// path holds the pointers being followed, so a cyclic structure
	// terminates instead of recursing.
	path []uintptr
}

// point replaces w's contents with p's key, reusing the buffer.
func (w *keyWriter) point(p SweepPoint) {
	sc := p.Scenario.withDefaults()
	chooser := sc.Chooser != nil
	sc.Chooser = nil
	w.b, w.path = w.b[:0], w.path[:0]
	w.b = fmt.Appendf(w.b, "rounds=%d chooser=%t ", p.Rounds, chooser)
	w.value(reflect.ValueOf(sc))
}

func (w *keyWriter) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		w.b = strconv.AppendBool(w.b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.b = strconv.AppendInt(w.b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		w.b = strconv.AppendUint(w.b, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		w.b = strconv.AppendFloat(w.b, v.Float(), 'g', -1, 64)
	case reflect.Complex64, reflect.Complex128:
		w.b = fmt.Appendf(w.b, "%v", v.Complex())
	case reflect.String:
		w.b = strconv.AppendQuote(w.b, v.String())
	case reflect.Struct:
		w.b = append(w.b, '{')
		for i, name := range structLabels(v.Type()) {
			w.b = append(w.b, name...)
			w.value(v.Field(i))
			w.b = append(w.b, ' ')
		}
		w.b = append(w.b, '}')
	case reflect.Pointer:
		if v.IsNil() {
			w.b = append(w.b, "nil"...)
			return
		}
		if slices.Contains(w.path, v.Pointer()) {
			w.b = append(w.b, "cycle"...)
			return
		}
		w.path = append(w.path, v.Pointer())
		w.b = append(w.b, '&')
		w.value(v.Elem())
		w.path = w.path[:len(w.path)-1]
	case reflect.Interface:
		if v.IsNil() {
			w.b = append(w.b, "nil"...)
			return
		}
		// The dynamic type names the program: two types with equal
		// fields (V1 and V2 both hold a DetectCompute) must differ.
		w.b = append(w.b, typeLabel(v.Elem().Type())...)
		w.value(v.Elem())
	case reflect.Slice, reflect.Array:
		w.b = append(w.b, '[')
		for i := 0; i < v.Len(); i++ {
			w.value(v.Index(i))
			w.b = append(w.b, ' ')
		}
		w.b = append(w.b, ']')
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			e := keyWriter{path: w.path}
			e.value(it.Key())
			e.b = append(e.b, ':')
			e.value(it.Value())
			entries = append(entries, string(e.b))
		}
		slices.Sort(entries)
		w.b = append(w.b, "map["...)
		for _, e := range entries {
			w.b = append(append(w.b, e...), ' ')
		}
		w.b = append(w.b, ']')
	default:
		// Func, Chan, UnsafePointer: code or an address; presence only.
		if v.IsNil() {
			w.b = append(w.b, "nil"...)
			return
		}
		w.b = append(w.b, "set"...)
	}
}

// fieldLabels and typeLabels cache per-type metadata every key repeats
// — a struct's "Field:" labels, an interface value's qualified type name
// — because every key walks the same few types. They hold no key, and
// grow only with the set of types a scenario can hold.
var fieldLabels, typeLabels sync.Map // reflect.Type -> []string, string

// structLabels returns "Name:" for each field of struct type t.
func structLabels(t reflect.Type) []string {
	if l, ok := fieldLabels.Load(t); ok {
		return l.([]string)
	}
	l := make([]string, t.NumField())
	for i := range l {
		l[i] = t.Field(i).Name + ":"
	}
	fieldLabels.Store(t, l)
	return l
}

// typeLabel is typeName, cached.
func typeLabel(t reflect.Type) string {
	if l, ok := typeLabels.Load(t); ok {
		return l.(string)
	}
	l := typeName(t)
	typeLabels.Store(t, l)
	return l
}

// typeName qualifies a named type with its package path.
func typeName(t reflect.Type) string {
	if t.Kind() == reflect.Pointer {
		return "*" + typeName(t.Elem())
	}
	if t.Name() == "" {
		return t.String()
	}
	return t.PkgPath() + "." + t.Name()
}
