#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary:
#
#   bash bench/run.sh --workload fig6-up --seed 1 --seconds 20 --trace 0
#
# The build cache, Go's temporary files and the binary all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and the
# toolchain is never allowed to download anything.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
