package main

import (
	"fmt"
	"math"
)

// A workload is one closed-loop traffic mix. Its campaign inputs are
// scenario specs generated from the run's seed alone; the system under
// test sees only the spec text.
type workload struct {
	name string
	// service runs every campaign through an in-process campaignd over
	// loopback HTTP instead of calling scenario.Run directly.
	service bool
	// workers is campaignd's fleet size (0 runs points in-process).
	workers int
	// clients is the number of closed-loop callers (at most 2).
	clients int
	// replayEvery makes every n-th operation of a client an identical
	// resubmission of a campaign that client already finished (0: none).
	replayEvery int
	// spec renders campaign i of the input stream.
	spec func(seed int64, i int, sc scale) string
	// flushSizes are campaign sizes whose checkpoint flush cost the
	// traced run reports on their own.
	flushSizes []int
}

// scale sizes the campaigns and the fixed parts of a run. fullScale is
// what BENCHMARK.json's runs use; smokeScale keeps the tests fast.
type scale struct {
	fig6Rounds  int
	faultRounds int
	geditRounds int
	viRounds    int
	fleetRounds int
	fleetMin    int
	fleetMax    int
	// minCampaigns fresh campaigns complete even if the deadline passes
	// first: every p90 needs 100 samples and output_digest covers them.
	minCampaigns int
	// maxCampaigns inputs are generated during set-up; the loop ends
	// early if it runs out of them. They stay live through the run, so
	// the count is kept a few times above what a 15 s run completes (at
	// most about 150 operations on a 2-core VM): more would swell the
	// resident set rss_mb_p50 reports with the benchmark's own memory.
	maxCampaigns int
	setupReps    int
	// gateEvery: every n-th fresh campaign is re-run locally and its
	// report compared byte for byte.
	gateEvery int
	// Per-layer probe sizes (traced runs only).
	probeRounds    int
	fsOps          int
	probeCampaigns int
}

var fullScale = scale{
	fig6Rounds:     1000,
	faultRounds:    400,
	geditRounds:    300,
	viRounds:       300,
	fleetRounds:    3,
	fleetMin:       16,
	fleetMax:       256,
	minCampaigns:   100,
	maxCampaigns:   400,
	setupReps:      5,
	gateEvery:      10,
	probeRounds:    400,
	fsOps:          2000,
	probeCampaigns: 3,
}

var smokeScale = scale{
	fig6Rounds:     4,
	faultRounds:    2,
	geditRounds:    2,
	viRounds:       2,
	fleetRounds:    1,
	fleetMin:       16,
	fleetMax:       24,
	minCampaigns:   3,
	maxCampaigns:   40,
	setupReps:      1,
	gateEvery:      2,
	probeRounds:    4,
	fsOps:          20,
	probeCampaigns: 1,
}

var workloads = []*workload{
	// Round-bound on the forked, coalesced big-file write path (sim and
	// fs); no checkpoint, no HTTP. A durability or service change must
	// not move it.
	{name: "fig6-up", clients: 1, spec: fig6Spec},
	// The same layers used differently: contended SMP, metadata-heavy fs
	// ops, EINTR and kill paths, coalescing mostly refused. A fig6-up
	// write-path win that costs contention shows here.
	{name: "smp-faults", clients: 1, spec: smpFaultsSpec},
	// Durability- and service-bound: per-point checkpoint rewrite,
	// event-log fsync and NDJSON streaming with tiny rounds; the cache
	// hits are the read path running beside the write path.
	{name: "svc-fleet", service: true, clients: 2, replayEvery: 3, spec: fleetSpec, flushSizes: []int{16, 256}},
	// Fleet-bound: every campaign pays for worker spawn, worker-side
	// recompile and the lease protocol. In-process workloads must not
	// move when only this one does.
	{name: "svc-workers", service: true, workers: 2, clients: 1, spec: viSMPSpec},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// splitmix64 derives every input from (seed, index): the same seed gives
// the same specs on any host.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw returns a value in [0, 2^31) from the seed, a stream tag and an
// index; spec seeds come from here, so they stay far below the int64
// range a point's seed + index*stride must fit in.
func draw(seed int64, tag string, i int) int64 {
	h := uint64(seed)
	for _, c := range tag {
		h = splitmix64(h ^ uint64(c))
	}
	return int64(splitmix64(h^uint64(i)) >> 33)
}

// warmup is the input index set-up runs before timing: one past the
// timed stream, so it is never part of it.
func warmup(sc scale) int { return sc.maxCampaigns }

func specName(base string, i int, sc scale) string {
	if i == warmup(sc) {
		return base + "-warmup"
	}
	return base
}

func fig6Spec(seed int64, i int, sc scale) string {
	return fmt.Sprintf(`name: %s
report: fig6
machine: up
rounds: %d
seed: %d
seed_stride: 7919
victim: vi
attacker: v1
syscall: chown
sizes_kb:
  from: 100
  to: 1000
  step: 100
assertions:
  - metric: rounds
    min: %d
    max: %d
`, specName("fig6-up", i, sc), sc.fig6Rounds, draw(seed, "fig6", i), 10*sc.fig6Rounds, 10*sc.fig6Rounds)
}

// smpFaultsSpec alternates the faultsweep grid with a gedit/v2
// multicore size sweep. Their round budgets are chosen so both take
// about as long, keeping the campaign-time distribution unimodal.
func smpFaultsSpec(seed int64, i int, sc scale) string {
	if i%2 == 0 {
		return fmt.Sprintf(`name: %s
report: faultsweep
machine: smp
rounds: %d
seed: %d
seed_stride: 7121
victim: vi
attacker: v1
sizes_kb: [100]
policies: [give-up, retry, retry+fallback]
fault_rates: [0, 0.002, 0.01, 0.05, 0.2]
faults:
  seed: %d
  fs_scale: 1
  sem_intr_scale: 1
  kill_victim_scale: 0.5
  kill_attacker_scale: 0.5
  sem_intr_delay_us: 1
  kill_window_ms: 4
  restart: true
watchdog_ms: 5000
assertions:
  - metric: rounds
    min: %d
    max: %d
`, specName("smp-faultsweep", i, sc), sc.faultRounds, draw(seed, "fault", i), draw(seed, "faultplan", i), 15*sc.faultRounds, 15*sc.faultRounds)
	}
	return fmt.Sprintf(`name: %s
machine: multicore
rounds: %d
seed: %d
victim: gedit
attacker: v2
sizes_kb: [2, 4, 8, 16, 32, 64]
assertions:
  - metric: rounds
    min: %d
    max: %d
`, specName("smp-gedit", i, sc), sc.geditRounds, draw(seed, "gedit", i), 6*sc.geditRounds, 6*sc.geditRounds)
}

func viSMPSpec(seed int64, i int, sc scale) string {
	return fmt.Sprintf(`name: %s
machine: smp
rounds: %d
seed: %d
victim: vi
attacker: v1
sizes_kb:
  from: 100
  to: 2000
  step: 100
assertions:
  - metric: rounds
    min: %d
    max: %d
`, specName("svc-vi-smp", i, sc), sc.viRounds, draw(seed, "vismp", i), 20*sc.viRounds, 20*sc.viRounds)
}

// fleetSpec is examples/scenarios/fleet.yaml's templates and fault plan
// with a fresh seed and jitter seed and a member count from fleetTotal.
func fleetSpec(seed int64, i int, sc scale) string {
	total := fleetTotal(i, sc)
	return fmt.Sprintf(`name: %s
machine: smp
rounds: %d
seed: %d
seed_stride: 7919
fleet:
  total: %d
  jitter_seed: %d
  templates:
    - name: vi-small
      weight: 5
      victim: vi
      attacker: v1
      size_kb:
        min: 20
        max: 60
    - name: gedit-mid
      weight: 3
      victim: gedit
      attacker: v2
      size_kb:
        min: 40
        max: 80
    - name: patched
      weight: 2
      victim: vi-fixed
      attacker: v1
      size_kb: 50
faults:
  seed: 9973
  fs_rate: 0.01
  sem_intr_rate: 0.01
  sem_intr_delay_us: 1
  kill_window_ms: 4
watchdog_ms: 5000
assertions:
  - metric: rounds
    min: %d
    max: %d
`, specName("svc-fleet", i, sc), sc.fleetRounds, draw(seed, "fleet", i), total, draw(seed, "jitter", i),
		total*sc.fleetRounds, total*sc.fleetRounds)
}

// fleetTotal is campaign i's member count: log-uniform on [fleetMin,
// fleetMax] at the i-th point of the golden-ratio sequence, which spreads
// every prefix, and the even and odd campaigns each, evenly over the
// range. The sizes are the same for every seed, so every run's completed
// campaigns have the same size mix, however the two clients share them,
// and campaign-time percentiles do not follow the luck of a draw; the
// seed changes each fleet's members through its jitter seed.
func fleetTotal(i int, sc scale) int {
	u := 0.5 // the warm-up campaign: the geometric mean
	if i != warmup(sc) {
		u = goldenPoint(i)
	}
	lo, hi := float64(sc.fleetMin), float64(sc.fleetMax)
	n := int(math.Round(lo * math.Pow(hi/lo, u)))
	return min(max(n, sc.fleetMin), sc.fleetMax)
}

// goldenPoint is the fractional part of (i+1)/φ.
func goldenPoint(i int) float64 {
	_, frac := math.Modf(float64(i+1) * (math.Sqrt(5) - 1) / 2)
	return frac
}
