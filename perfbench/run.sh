#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload serve-rank --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# traces stay under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/go-cache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
