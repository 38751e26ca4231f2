package core_test

import (
	"os"
	"testing"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

// TestSweepFingerprintPinned pins the sweep fingerprint of the shipped
// fig6 scenario. campaignd job ids and the worker fleet's load checks key
// on it, so a change to the hash (or to its frozen "v1" tag) would orphan
// every stored job and every running worker.
func TestSweepFingerprintPinned(t *testing.T) {
	data, err := os.ReadFile("../../examples/scenarios/fig6.yaml")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.LoadBytes("fig6.yaml", data)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0xf38c935ad9d6e8a3
	if got := core.SweepFingerprint(compiled.Points, core.AdaptiveStop{}); got != want {
		t.Errorf("fig6 sweep fingerprint = %#016x, want %#016x", got, uint64(want))
	}
}
