#!/usr/bin/env bash
# Builds cmd/odpload from the checkout this script lives in and runs it.
#
#   benchmark/run.sh --workload tcp_serial --seed 1 --seconds 16 --trace 0
#       one run; the last line of output is the result as one JSON object
#       (this is BENCHMARK.json's command)
#   benchmark/run.sh
#       a whole set twice, seeds 1 and 2, then `odpload -compare` of the
#       two: exits non-zero if a correctness check fails or a row is worse
#
# Everything the build and the runs write stays inside the checkout:
# the Go caches and the binary under .bench_build, traces and result
# files under benchmark/out.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/odpload" ./cmd/odpload

if [ $# -gt 0 ]; then
	exec "$build/odpload" "$@"
fi

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
"$build/odpload" -out benchmark/out -seed 1 -commit "$commit"
"$build/odpload" -out benchmark/out -seed 2 -commit "$commit"
exec "$build/odpload" -compare benchmark/out/result_seed1.json benchmark/out/result_seed2.json
