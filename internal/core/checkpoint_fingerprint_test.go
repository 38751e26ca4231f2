package core_test

import (
	"os"
	"testing"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

// TestSweepFingerprintPinned pins the sweep fingerprint of the shipped
// fig6 scenario. campaignd job ids, checkpoint headers and the worker
// fleet's load checks key on it, so a change to the point key encoding
// (or to its "v2" tag) orphans every stored job and every running worker
// and must be deliberate.
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
	const want = 0xfd490c57b9a7e272
	if got := core.SweepFingerprint(compiled.Points); got != want {
		t.Errorf("fig6 sweep fingerprint = %#016x, want %#016x", got, uint64(want))
	}
}
