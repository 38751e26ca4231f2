#!/usr/bin/env bash
# chaos_check.sh — the worker fleet's chaos gate, run by both
# `make chaos-check` and CI's chaos job (same script, same assertions).
#
# Phase A (crash recovery): start tocttoud with -workers 3 and a
# TOCTTOU_CHAOS schedule that kills each initial worker incarnation at
# its first point a different way — hard crash, torn result write,
# silenced heartbeat (stall), crash between commit and ack. Submit
# examples/scenarios/fig6.yaml, watch it to completion, and diff the
# report against the committed golden: supervision must make the chaos
# invisible, byte for byte. /v1/stats must show the recovery happened
# (restarts, requeued leases, a deduplicated commit — i.e. no lease was
# double-counted). The job log is written in point order, so the chaos
# job's events.ndjson must also be byte-identical to the one an
# in-process daemon (no -workers) writes for the same spec.
#
# Phase B (poison point): a schedule that crashes every worker reaching
# point 3 of the grid. With -max-point-retries 3 the point must be
# quarantined — surfaced in the job state, the report appendix, and
# /v1/stats — while the other nine points complete.
#
# Logs land in $CHAOS_CHECK_LOGS (default: a fresh temp dir, printed on
# failure); CI uploads that directory as an artifact when the job fails.
set -u -o pipefail

cd "$(dirname "$0")/.."
LOGS="${CHAOS_CHECK_LOGS:-$(mktemp -d /tmp/chaos-check.XXXXXX)}"
mkdir -p "$LOGS"
WORK="$(mktemp -d /tmp/chaos-check-work.XXXXXX)"
DAEMON_PID=""

fail() {
    echo "chaos-check: FAIL: $*" >&2
    echo "chaos-check: logs in $LOGS" >&2
    exit 1
}

cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# start_daemon <logfile> <datadir> [flags...]: launches tocttoud on an
# ephemeral port, waits for the address file, sets DAEMON_PID and SERVER.
start_daemon() {
    local logfile="$1" datadir="$2"
    shift 2
    rm -f "$WORK/addr.txt"
    "$WORK/tocttoud" -listen 127.0.0.1:0 -data "$datadir" -addr-file "$WORK/addr.txt" "$@" \
        >>"$LOGS/$logfile" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$WORK/addr.txt" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited at startup (see $LOGS/$logfile)"
        sleep 0.1
    done
    [ -s "$WORK/addr.txt" ] || fail "daemon never wrote its address file"
    SERVER="http://$(cat "$WORK/addr.txt")"
    echo "chaos-check: daemon pid $DAEMON_PID at $SERVER"
}

stop_daemon() {
    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID" 2>/dev/null
    DAEMON_PID=""
}

# stat_field <name> <statsfile>: extracts a numeric field from the
# /v1/stats JSON without depending on jq.
stat_field() {
    grep -o "\"$1\":[0-9-]*" "$2" | head -n1 | cut -d: -f2
}

fetch_stats() {
    curl -fsS "$SERVER/v1/stats" >"$1" 2>/dev/null \
        || wget -qO "$1" "$SERVER/v1/stats" \
        || fail "fetching /v1/stats"
}

echo "chaos-check: building binaries"
go build -o "$WORK/tocttoud" ./cmd/tocttoud || fail "building tocttoud"
go build -o "$WORK/tocttou" ./cmd/tocttou || fail "building tocttou"

# ---- Phase A: every initial worker dies once; the report must not care ----
# Worker ids are spawn incarnations: w0/w1/w2 are the initial fleet,
# w3 is the first replacement. Each dies a different way, so supervision
# exercises crash, torn-write, stall-reap, and the commit/ack seam in a
# single campaign.
export TOCTTOU_CHAOS="w0:crash@1;w1:torn@1;w2:stall@1;w3:crash-after@1"
start_daemon tocttoud-phaseA.log "$WORK/data-a" \
    -workers 3 -heartbeat-interval 25ms -lease-timeout 1s

SUBMIT=$("$WORK/tocttou" -server "$SERVER" -submit examples/scenarios/fig6.yaml) \
    || fail "submitting fig6"
FIG6_ID=$(echo "$SUBMIT" | awk '{print $1}')
echo "chaos-check: fig6 submitted as $FIG6_ID under chaos schedule: $TOCTTOU_CHAOS"

"$WORK/tocttou" -server "$SERVER" -watch "$FIG6_ID" \
    >"$LOGS/fig6-chaos-watched.txt" 2>"$LOGS/fig6-chaos-progress.txt" \
    || fail "watching fig6 under chaos (see $LOGS/fig6-chaos-progress.txt)"
diff -u testdata/golden/fig6.txt "$LOGS/fig6-chaos-watched.txt" \
    || fail "chaos-recovered fig6 report is not byte-identical to the golden"
echo "chaos-check: chaos-recovered fig6 report is byte-identical to the golden"

fetch_stats "$LOGS/stats-phaseA.json"
RESTARTS=$(stat_field worker_restarts "$LOGS/stats-phaseA.json")
REQUEUED=$(stat_field leases_requeued "$LOGS/stats-phaseA.json")
DEDUPED=$(stat_field points_deduped "$LOGS/stats-phaseA.json")
COMMITTED=$(stat_field points_committed "$LOGS/stats-phaseA.json")
QUARANTINED=$(stat_field points_quarantined "$LOGS/stats-phaseA.json")
echo "chaos-check: stats: restarts=$RESTARTS requeued=$REQUEUED deduped=$DEDUPED committed=$COMMITTED quarantined=$QUARANTINED"
[ "${RESTARTS:-0}" -ge 4 ] || fail "worker_restarts=$RESTARTS, want >= 4 (each scheduled death restarts once)"
[ "${REQUEUED:-0}" -ge 3 ] || fail "leases_requeued=$REQUEUED, want >= 3"
[ "${DEDUPED:-0}" -ge 1 ] || fail "points_deduped=$DEDUPED, want >= 1 (the crash-after commit must dedupe, not double-count)"
[ "${COMMITTED:-0}" -eq 10 ] || fail "points_committed=$COMMITTED, want exactly 10 (every point exactly once)"
[ "${QUARANTINED:-0}" -eq 0 ] || fail "points_quarantined=$QUARANTINED, want 0 in phase A"
echo "chaos-check: supervision counters confirm recovery with no double-counted lease"

stop_daemon
unset TOCTTOU_CHAOS
start_daemon tocttoud-phaseA-inprocess.log "$WORK/data-ref"
SUBMIT=$("$WORK/tocttou" -server "$SERVER" -submit examples/scenarios/fig6.yaml) \
    || fail "submitting fig6 to the in-process daemon"
REF_ID=$(echo "$SUBMIT" | awk '{print $1}')
"$WORK/tocttou" -server "$SERVER" -watch "$REF_ID" >/dev/null 2>"$LOGS/fig6-inprocess-progress.txt" \
    || fail "watching fig6 in-process (see $LOGS/fig6-inprocess-progress.txt)"
cmp "$WORK/data-a/jobs/$FIG6_ID/events.ndjson" "$WORK/data-ref/jobs/$REF_ID/events.ndjson" \
    || fail "the chaos fleet's fig6 events.ndjson differs from the in-process daemon's"
echo "chaos-check: chaos fleet's fig6 job log is byte-identical to the in-process one"
stop_daemon

# ---- Phase B: a poison point is quarantined; the rest complete ----
export TOCTTOU_CHAOS="crash@point=3"
start_daemon tocttoud-phaseB.log "$WORK/data-b" \
    -workers 3 -heartbeat-interval 25ms -lease-timeout 1s -max-point-retries 3

SUBMIT=$("$WORK/tocttou" -server "$SERVER" -submit examples/scenarios/fig6.yaml) \
    || fail "submitting fig6 for the poison-point phase"
POISON_ID=$(echo "$SUBMIT" | awk '{print $1}')
echo "chaos-check: fig6 submitted as $POISON_ID with poison point 3"

# The watch ends when the job settles; the poison point never commits,
# so the client exits on the end event with 9/10 points streamed.
"$WORK/tocttou" -server "$SERVER" -watch "$POISON_ID" \
    >"$LOGS/fig6-poison-watched.txt" 2>"$LOGS/fig6-poison-progress.txt"
grep -q "quarantined points: 1 of 10" "$LOGS/fig6-poison-watched.txt" \
    || fail "report lacks the quarantine appendix (see $LOGS/fig6-poison-watched.txt)"
echo "chaos-check: report names the quarantined point while the campaign completed"

fetch_stats "$LOGS/stats-phaseB.json"
COMMITTED=$(stat_field points_committed "$LOGS/stats-phaseB.json")
QUARANTINED=$(stat_field points_quarantined "$LOGS/stats-phaseB.json")
RESTARTS=$(stat_field worker_restarts "$LOGS/stats-phaseB.json")
echo "chaos-check: stats: committed=$COMMITTED quarantined=$QUARANTINED restarts=$RESTARTS"
[ "${QUARANTINED:-0}" -eq 1 ] || fail "points_quarantined=$QUARANTINED, want 1"
[ "${COMMITTED:-0}" -eq 9 ] || fail "points_committed=$COMMITTED, want 9 (all but the poison point)"
[ "${RESTARTS:-0}" -ge 3 ] || fail "worker_restarts=$RESTARTS, want >= 3 (the poison point killed max-point-retries workers)"
echo "chaos-check: poison point quarantined after 3 kills; other 9 points committed"

stop_daemon
echo "chaos-check: PASS"
