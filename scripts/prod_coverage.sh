#!/usr/bin/env bash
# prod_coverage.sh — production-coverage audit, run by `make prod-coverage`.
#
# Finds code that nothing runs. It collects statement coverage of every
# package under internal/ and cmd/ from three sources:
#
#   tests       the tier-1 suite (go test ./...);
#   bench       the benchmark smoke run (go test -run '^$' -bench . -benchtime 1x ./...);
#   production  -cover builds of tocttou, tocttoud and traceview running the
#               command list below.
#
# The production command list: tocttou -list; -experiment all, plain and
# with -metrics; the golden experiments written with -golden; one
# -checkpoint sweep; one -explore run writing -witness-out traces;
# -scenario on each shipped scenario file; the four -trace-out
# -trace-scenario exports; traceview running a round, writing -csv, and
# rendering an exported trace with -input; and tocttoud, in-process and
# with -workers 2, serving a -submit, -watch and -jobs of fig6.yaml
# before a SIGTERM drain.
#
# One blind spot: the fleet's teardown SIGKILLs its worker processes, so
# they never write counters, and the worker side of internal/workerpool
# shows only what the tests reach in-process.
#
# The production binaries write covdata (GOCOVERDIR), which
# `go tool covdata textfmt` turns into a text profile; the two go test runs
# write text profiles with -coverpkg. The script merges the three and
# prints
#
#   1. every function with zero hits in all three sources, and
#   2. every function no production command reaches, with its entry count
#      (the number of calls) in each source.
#
# It is an audit, not a gate: a failing test still leaves its coverage,
# and the script reports the failure and goes on. Run it from anywhere;
# it takes a few minutes and works in a temporary directory it removes.
set -u -o pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
PKGS=./internal/...,./cmd/...
WORK="$(mktemp -d /tmp/prod-coverage.XXXXXX)"
DAEMON_PID=""

cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

note() { echo "prod-coverage: $*" >&2; }

# ---- tests and the benchmark smoke run ----
note "tier-1 tests under -coverpkg"
$GO test -covermode=count -coverpkg="$PKGS" -coverprofile="$WORK/tests.out" ./... \
    >"$WORK/tests.log" 2>&1 || note "WARNING: tests failed under coverage (see output above the summary)"
grep -v '^ok\|^?' "$WORK/tests.log" | grep -v 'coverage:' >&2 || true

note "benchmark smoke run under -coverpkg"
$GO test -covermode=count -coverpkg="$PKGS" -coverprofile="$WORK/bench.out" \
    -run '^$' -bench . -benchtime 1x ./... >"$WORK/bench.log" 2>&1 \
    || note "WARNING: the benchmark smoke run failed under coverage"

# ---- production commands ----
note "building -cover binaries"
mkdir -p "$WORK/bin" "$WORK/covdata" "$WORK/run"
for cmd in tocttou tocttoud traceview; do
    $GO build -cover -covermode=count -coverpkg="$PKGS" -o "$WORK/bin/$cmd" "./cmd/$cmd" \
        || { note "building $cmd failed"; exit 1; }
done
export GOCOVERDIR="$WORK/covdata"
T="$WORK/bin/tocttou"
R="$WORK/run"

# run <cmd...>: runs one production command, discarding its output.
run() {
    note "  $*"
    "$@" >"$R/out.txt" 2>&1 || note "  (exit status $?)"
}

note "running the production commands"
run "$T" -list
run "$T" -experiment all
run "$T" -experiment all -metrics
run "$T" -experiment fig6,headline,eq1-exact,faultsweep,defense -golden "$R/golden"
run "$T" -experiment fig6 -rounds 40 -checkpoint "$R/fig6.ckpt"
run "$T" -explore -sizes 1,100 -rounds 20 -witness-out "$R/witness"
for spec in examples/scenarios/*.yaml; do
    run "$T" -scenario "$spec"
done
for sc in vi-uni vi-smp gedit-v1 gedit-v2; do
    run "$T" -trace-out "$R/$sc.jsonl" -trace-scenario "$sc"
done
run "$WORK/bin/traceview" -machine multicore -victim gedit -attacker v2 -want success
run "$WORK/bin/traceview" -csv "$R/tv.csv"
run "$WORK/bin/traceview" -input "$R/vi-smp.jsonl"

# serve <label> [tocttoud flags...]: starts tocttoud over a fresh data
# directory, submits and watches fig6.yaml, lists the jobs, then drains the
# daemon with SIGTERM so it (and any worker) exits and writes its counters.
serve() {
    local label="$1"
    shift
    note "  tocttoud $* (submit, watch, jobs, drain)"
    rm -f "$R/addr.txt"
    "$WORK/bin/tocttoud" -listen 127.0.0.1:0 -data "$R/data-$label" \
        -addr-file "$R/addr.txt" "$@" >"$R/tocttoud-$label.log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$R/addr.txt" ] && break
        sleep 0.1
    done
    if [ ! -s "$R/addr.txt" ]; then
        note "  tocttoud never wrote its address file"
        return
    fi
    local server id
    server="http://$(cat "$R/addr.txt")"
    id=$("$T" -server "$server" -submit examples/scenarios/fig6.yaml | awk '{print $1}')
    run "$T" -server "$server" -watch "$id"
    run "$T" -server "$server" -jobs
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID"
    DAEMON_PID=""
}
serve inproc
serve fleet -workers 2

$GO tool covdata textfmt -i="$WORK/covdata" -o "$WORK/prod.out" \
    || { note "go tool covdata textfmt failed"; exit 1; }

# ---- merge and report ----
# The merged profile: one mode line, then every block of every source.
# go tool cover adds up the counts of a block that appears more than once.
{
    echo "mode: count"
    grep -hv '^mode:' "$WORK/tests.out" "$WORK/bench.out" "$WORK/prod.out"
} >"$WORK/all.out"
$GO tool cover -func="$WORK/all.out" | grep -v '^total:' >"$WORK/funcs.txt"

echo "== functions with zero hits in tests, benchmark smoke and production =="
awk -F'\t+' '$NF == "0.0%" { sub(/^tocttou\//, "", $1); sub(/:$/, "", $1); print $1 "\t" $2 }' \
    "$WORK/funcs.txt"

# A function's hits in one source are the count of its entry block: the
# first block at or after its declaration line and before the next
# declaration in the same file.
echo
echo "== functions no production command reaches (entry hits: tests, bench, production) =="
awk -F'\t+' -v OFS='\t' '
FILENAME == ARGV[1] {
    # tocttou/internal/fs/ops.go:46:	Access	100.0%
    split($1, loc, ":")
    file = loc[1]
    k = ++nf[file]
    fline[file, k] = loc[2] + 0
    fname[file, k] = $2
    next
}
FNR == 1 {
    src = FILENAME
    sub(/.*\//, "", src)
    sub(/\.out$/, "", src)
    next
}
{
    # tocttou/internal/fs/ops.go:46.65,48.2 3 1
    split($0, blk, " ")
    split(blk[1], a, ":")
    file = a[1]
    split(a[2], b, ",")
    split(b[1], s, ".")
    sl = s[1] + 0
    pos = sl * 10000 + s[2]
    owner = 0
    for (i = 1; i <= nf[file]; i++)
        if (fline[file, i] <= sl && (owner == 0 || fline[file, i] > fline[file, owner]))
            owner = i
    if (owner == 0)
        next
    key = file SUBSEP owner SUBSEP src
    if (!(key in entry) || pos < entry[key]) {
        entry[key] = pos
        hits[key] = 0
    }
    if (pos == entry[key])
        hits[key] += blk[3]
}
END {
    for (file in nf)
        for (i = 1; i <= nf[file]; i++) {
            key = file SUBSEP i SUBSEP
            if (hits[key "prod"] > 0)
                continue
            where = file ":" fline[file, i]
            sub(/^tocttou\//, "", where)
            print where, fname[file, i], hits[key "tests"] + 0, hits[key "bench"] + 0, 0
        }
}' "$WORK/funcs.txt" "$WORK/tests.out" "$WORK/bench.out" "$WORK/prod.out" | sort
