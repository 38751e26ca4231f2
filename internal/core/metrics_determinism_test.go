package core

import (
	"runtime"
	"testing"

	"tocttou/internal/machine"
	"tocttou/internal/metrics"
)

// The metrics summary is part of a campaign's result, so it inherits the
// engine's determinism contract: identical scenarios must yield Points
// equal under == — same Welford summaries bit for bit, same histogram
// counts — regardless of GOMAXPROCS or worker interleaving, in both the
// single-campaign and sweep paths.

// requirePopulated fails unless the point actually observed kernel
// activity and (for traced scenarios) latencies — guarding against a
// determinism test that passes because both sides are all-zero.
func requirePopulated(t *testing.T, p metrics.Point, traced bool) {
	t.Helper()
	if p.Rounds == 0 || p.Dispatches.Mean() == 0 || p.Ticks.Mean() == 0 || p.BusyUs.Mean() == 0 {
		t.Fatalf("metrics point is unpopulated: %+v", p)
	}
	if traced {
		if p.WindowHist.N() == 0 || p.DHist.N() == 0 || p.LHist.N() == 0 {
			t.Fatalf("traced metrics point has empty histograms: window=%d D=%d L=%d",
				p.WindowHist.N(), p.DHist.N(), p.LHist.N())
		}
	}
}

func TestCampaignMetricsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc := deterministicViSMP()
	parallel := campaign(t, sc, determinismRounds)

	prev := runtime.GOMAXPROCS(1)
	serial := campaign(t, sc, determinismRounds)
	runtime.GOMAXPROCS(prev)

	requirePopulated(t, parallel.Metrics, true)
	if parallel.Metrics != serial.Metrics {
		t.Fatalf("campaign metrics depend on parallelism:\n gomaxprocs=n: %+v\n gomaxprocs=1: %+v",
			parallel.Metrics, serial.Metrics)
	}
}

func TestSweepMetricsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// Several traced points at different sizes and seeds, like Fig 7 runs.
	scs := []Scenario{
		viSc(machine.SMP2(), 50<<10, 7001, true),
		viSc(machine.SMP2(), 200<<10, 7901, true),
		viSc(machine.Uniprocessor(), 100<<10, 8803, true),
	}
	const rounds = 120

	parallel, err := RunSweep(scs, rounds, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, serr := RunSweep(scs, rounds, SweepOptions{})
	runtime.GOMAXPROCS(prev)
	if serr != nil {
		t.Fatal(serr)
	}

	for i := range scs {
		requirePopulated(t, parallel[i].Metrics, false)
		if parallel[i].Metrics != serial[i].Metrics {
			t.Fatalf("sweep point %d metrics depend on parallelism:\n gomaxprocs=n: %+v\n gomaxprocs=1: %+v",
				i, parallel[i].Metrics, serial[i].Metrics)
		}
	}
}

func TestCampaignMetricsMatchBaselineRunner(t *testing.T) {
	// The oracle runs every round serially on one roundState and folds
	// in plain index order; the sweep's reorder buffer must reproduce its
	// result, metrics included, exactly.
	sc := deterministicViSMP()
	var base CampaignResult
	var st roundState
	defer st.release()
	for i := 0; i < determinismRounds; i++ {
		rsc := sc
		rsc.Seed = sc.Seed + int64(i+1)*SeedStride
		r, err := runRound(rsc, &st)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		r.Events = nil
		base.addRound(r)
	}
	swept := campaign(t, sc, determinismRounds)
	if base != swept {
		t.Fatalf("sweep diverges from the serial index-order fold:\n  fold: %+v\n sweep: %+v", base, swept)
	}
}

func TestCampaignMetricsUntracedCountersStillPopulate(t *testing.T) {
	// Without tracing there are no latency histograms, but the kernel
	// counter block is always on.
	sc := viSc(machine.SMP2(), 100<<10, 7001, false)
	res := campaign(t, sc, 50)
	requirePopulated(t, res.Metrics, false)
	if res.Metrics.Traced() {
		t.Fatalf("untraced campaign claims latency data: %+v", res.Metrics)
	}
	if res.Metrics.WindowHist.N() != 0 || res.Metrics.LHist.N() != 0 {
		t.Fatal("untraced campaign must have empty latency histograms")
	}
}
