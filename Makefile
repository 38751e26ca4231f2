GO ?= go

.PHONY: check vet build test race bench golden golden-check scenario-check serve-check chaos-check

# check is the gate every change must pass: vet, build, the full test
# suite, and a race-detector pass over the parallel campaign worker pool
# and the simulator's coroutine handoff protocol. race's campaignd line
# runs that whole package and its core line matches Checkpoint, so both
# stores' crash-state enumerations (TestJobLogCrashStates,
# TestCheckpointCrashStates) run under the race detector too.
check: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/ -run 'Campaign|Sweep|Adaptive|FindRound|OnRound|Aborted|Explore|Fault|Checkpoint|Watchdog|Panic|Fork|Coalesced|Horizon|EINTR|PointKey|Resume|Commit|Batch'
	$(GO) test -race ./internal/experiments/ -run 'Sweep|Adaptive|Fault|Checkpoint'
	$(GO) test -race ./internal/scenario/ -run 'Fleet|Checkpoint'
	$(GO) test -race ./internal/campaignd/
	$(GO) test -race ./internal/workerpool/
	$(GO) test -race ./internal/sim/ ./internal/metrics/ ./internal/trace/ ./internal/explore/ ./internal/fault/ ./internal/fs/

# bench runs the per-layer microbenchmarks (see DESIGN.md's Performance
# section for the benchstat comparison workflow).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim/ ./internal/fs/ ./internal/core/

# golden refreshes the committed experiment snapshots. Run it after a
# deliberate output change and review the diff before committing.
GOLDEN_EXPERIMENTS = fig6,headline,eq1-exact,faultsweep,defense
golden:
	$(GO) run ./cmd/tocttou -experiment $(GOLDEN_EXPERIMENTS) -golden testdata/golden

# golden-check regenerates the snapshots into a scratch directory and
# diffs them against the committed ones, failing on any drift.
golden-check:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/tocttou -experiment $(GOLDEN_EXPERIMENTS) -golden $$tmp && \
	diff -ru testdata/golden $$tmp && \
	rm -rf $$tmp && \
	echo "golden-check: snapshots match"

# scenario-check runs the shipped scenario files through -scenario:
# fig6.yaml and faultsweep.yaml are the only definitions of those two
# experiments (-experiment runs them embedded), so their -scenario output
# must match the committed goldens byte-for-byte and pass their
# assertions at the full budget; the 600-victim generated fleet must run
# to completion with its assertions passing.
scenario-check:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/tocttou -scenario examples/scenarios/fig6.yaml -golden $$tmp && \
	$(GO) run ./cmd/tocttou -scenario examples/scenarios/faultsweep.yaml -golden $$tmp && \
	diff -u testdata/golden/fig6.txt $$tmp/fig6.txt && \
	diff -u testdata/golden/faultsweep.txt $$tmp/faultsweep.txt && \
	$(GO) run ./cmd/tocttou -scenario examples/scenarios/fleet.yaml -golden $$tmp && \
	rm -rf $$tmp && \
	echo "scenario-check: scenario output matches the experiment goldens"

# serve-check is the campaign service's end-to-end gate — the identical
# script CI's service job runs: loopback smoke (submit fig6, watch, diff
# against the golden), the spec-error round-trip, and the kill -9
# mid-campaign + bit-identical-resume drill. Logs land in a temp dir
# (override with SERVE_CHECK_LOGS=dir).
serve-check:
	bash scripts/serve_check.sh

# chaos-check is the worker fleet's chaos gate — the identical script
# CI's chaos job runs: tocttoud under -workers with a TOCTTOU_CHAOS
# schedule that kills every initial worker (crash, torn write, stall,
# crash-between-commit-and-ack) must still produce a fig6 report
# byte-identical to the golden with no double-counted lease, and a
# poison point must be quarantined while the other points complete.
# Logs land in a temp dir (override with CHAOS_CHECK_LOGS=dir).
chaos-check:
	bash scripts/chaos_check.sh
