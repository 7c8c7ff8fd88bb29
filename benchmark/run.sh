#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload paper13_exhaustive --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh            # every workload, 3 rounds, a table
#
# Everything the build and the run write — the Go build cache, the
# binary, temporary stores, span files — goes under .bench_build/ in the
# checkout, which .gitignore names.
set -euo pipefail

if [[ ! -f go.mod || ! -d benchmark ]]; then
	echo "benchmark/run.sh: run from the root of a checkout that holds go.mod and benchmark/" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# No network, no toolchain download, no C compiler: the module has no
# dependencies and the benchmark must build from what the checkout holds.
export GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$build/robustbench" ./benchmark
exec "$build/robustbench" "$@"
