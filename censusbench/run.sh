#!/usr/bin/env bash
# Builds the censuslink benchmark from the source in this checkout and runs
# it with the given arguments. Run it from the checkout root:
#
#   bash censusbench/run.sh --workload pair_link --seed 1871 --seconds 6 --trace 0
#
# Every file the build and the run write (Go build cache, binary, temporary
# stores, traces) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/censusbench" && go build -o "$build/censusbench" .) >&2
exec "$build/censusbench" "$@"
