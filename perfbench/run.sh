#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_figs --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/
# in the working directory, the Go build cache included.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
