#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it, from the
# root of a checkout:
#
#   bash elperf/run.sh --workload steady --seed 1 --seconds 12 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build/ too, so
# the benchmark reads and writes nothing outside the checkout (apart from
# reading the Go toolchain).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS= GOTOOLCHAIN=local
export GOPROXY=off GOSUMDB=off GOTELEMETRY=off
(cd "$root/elperf" && go build -o "$build/elperf" .)
exec "$build/elperf" "$@"
