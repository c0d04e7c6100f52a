#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from the checkout
# it is started in and runs it with the arguments given, e.g.
#   bash benchmark/run.sh --workload handoff --seed 7 --seconds 16 --trace 0
# Everything the build writes (Go's build cache, temporary files, the
# binary) and the span files of traced runs stay under .bench_build/ in that
# checkout; the first run compiles the standard library into that cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off

# Compiler chatter goes to stderr; stdout belongs to the benchmark's report.
go build -o "$build/benchmark" ./benchmark 1>&2
exec "$build/benchmark" "$@"
