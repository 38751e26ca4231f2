package experiments

import (
	"runtime"
	"testing"

	"tocttou/internal/core"
	"tocttou/internal/scenario"
)

// fig6Scenarios compiles the shipped fig6 spec (sizes, base seed,
// per-point stride) so these tests pin the production sweep, not a toy.
func fig6Scenarios(t *testing.T) []core.Scenario {
	t.Helper()
	spec, err := loadSpec("fig6")
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	scs := make([]core.Scenario, len(c.Points))
	for i, p := range c.Points {
		scs[i] = p.Scenario
	}
	return scs
}

// TestFig6SweepBitIdenticalToSerialLoop is the tentpole's contract: the
// interleaved sweep over the Fig 6 point set produces byte-for-byte the
// CampaignResults of the old serial RunCampaign loop, at GOMAXPROCS=1
// and at NumCPU (and under -race via make check).
func TestFig6SweepBitIdenticalToSerialLoop(t *testing.T) {
	scs := fig6Scenarios(t)
	const rounds = 60
	serial := make([]core.CampaignResult, len(scs))
	for i, sc := range scs {
		res, err := core.RunCampaign(sc, rounds)
		if err != nil {
			t.Fatalf("serial point %d: %v", i, err)
		}
		serial[i] = res
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		swept, err := core.RunSweep(scs, rounds, core.SweepOptions{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: sweep: %v", procs, err)
		}
		for i := range scs {
			if swept[i] != serial[i] {
				t.Errorf("GOMAXPROCS=%d point %d (%dKB): sweep diverged from serial loop:\nsweep:  %+v\nserial: %+v",
					procs, i, 100*(i+1), swept[i], serial[i])
			}
		}
	}
}

// TestFig6SeedStreamsPairwiseDisjoint documents why the seed derivation
// is collision-free as-is. Round k of point i runs at seed
//
//	(1007 + i*7919) + (k+1)*core.SeedStride.
//
// Two points' streams could only share a seed if their base-seed
// difference were a nonzero multiple of SeedStride; Fig 6's bases span
// only 9*7919 = 71271 < SeedStride = 1000003, so no multiple fits and
// the streams are pairwise disjoint for any budget. The test verifies
// the concrete instance exhaustively at the production budget.
func TestFig6SeedStreamsPairwiseDisjoint(t *testing.T) {
	scs := fig6Scenarios(t)
	const rounds = 500 // the production Fig 6 budget
	seen := make(map[int64]int, len(scs)*rounds)
	for i, sc := range scs {
		for k := 0; k < rounds; k++ {
			seed := sc.Seed + int64(k+1)*core.SeedStride
			if j, dup := seen[seed]; dup {
				t.Fatalf("seed %d of point %d collides with point %d", seed, i, j)
			}
			seen[seed] = i
		}
	}
	if len(seen) != len(scs)*rounds {
		t.Fatalf("expected %d distinct seeds, got %d", len(scs)*rounds, len(seen))
	}
}
