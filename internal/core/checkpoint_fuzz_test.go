package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The sweep identity the committed seed corpus
// (testdata/fuzz/FuzzLoadCheckpoint: a version-3 file and a torn one,
// plus version-1 and version-2 files the loader must reject) is written
// for.
const (
	fuzzFingerprint = 0x5eed
	fuzzPoints      = 4
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader. It
// must never panic, every restored point must be in range, and a result
// may come only from a complete line: dropping everything after the
// last newline, or tearing another fragment onto a loadable file,
// restores exactly the same points.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		done, err := parseCheckpoint(data, fuzzFingerprint, fuzzPoints)
		if err != nil {
			return
		}
		for p := range done {
			if p < 0 || p >= fuzzPoints {
				t.Fatalf("restored point %d out of range [0, %d)", p, fuzzPoints)
			}
		}
		same := func(label string, variant []byte) {
			got, err := parseCheckpoint(variant, fuzzFingerprint, fuzzPoints)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(got) != len(done) {
				t.Fatalf("%s: %d points restored, want %d", label, len(got), len(done))
			}
			for p, res := range done {
				if g, ok := got[p]; !ok || g != res {
					t.Fatalf("%s: point %d = %+v (present %v), want %+v", label, p, g, ok, res)
				}
			}
		}
		if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
			same("cut at the last newline", data[:i+1])
		}
		first, _, _ := bytes.Cut(data, []byte{'\n'})
		var h checkpointHeader
		if json.Unmarshal(first, &h) == nil && h.Version == checkpointVersion {
			same("torn fragment appended", append(bytes.Clone(data), `{"point":0,"result":{"Rounds":9`...))
		}
	})
}
