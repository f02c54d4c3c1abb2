#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload grid256 --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, temp files, the binary) stays
# under .bench_build in the checkout root; the benchmark's own scratch
# inputs go there too and are removed when it exits.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

cd "$root"
exec "$build/perfbench" "$@"
