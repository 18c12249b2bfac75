#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ inside the checkout (build cache included, so nothing is read
# or written outside it) and runs it with the arguments given.
#
#   bash benchmark/run.sh --workload scan_dense --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $root: the benchmark builds against the repro module" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/deepstore-benchmark" ./benchmark
exec "$build/deepstore-benchmark" "$@"
