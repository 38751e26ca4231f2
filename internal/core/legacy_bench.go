package core

import (
	"fmt"
	"runtime"
	"sync"
)

// RunCampaignBaseline is the pre-sweep campaign runner, retained verbatim
// as the wall-clock and allocation baseline for the sweep benchmark
// (cmd/tocttou -sweep, BENCH_2.json): it spins up a fresh worker set per
// campaign, buffers O(rounds) Round and error slices even though only the
// summary is wanted, and barriers on every round before folding. Use
// RunCampaign or RunSweep everywhere else.
func RunCampaignBaseline(sc Scenario, rounds int) (CampaignResult, error) {
	if rounds <= 0 {
		return CampaignResult{}, fmt.Errorf("core: campaign needs rounds > 0, got %d", rounds)
	}
	results := make([]Round, rounds)
	errs := make([]error, rounds)

	workers := runtime.NumCPU()
	if workers > rounds {
		workers = rounds
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st roundState
			defer st.release()
			for i := range next {
				rsc := sc
				rsc.Seed = sc.Seed + int64(i+1)*SeedStride
				results[i], errs[i] = runRound(rsc, &st)
				results[i].Events = nil
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	var out CampaignResult
	for i := 0; i < rounds; i++ {
		if errs[i] != nil {
			return CampaignResult{}, fmt.Errorf("core: round %d: %w", i, errs[i])
		}
		out.addRound(results[i])
	}
	return out, nil
}
