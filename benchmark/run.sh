#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
#
#   bash benchmark/run.sh --workload sim-suite --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# graph cache, binary, run records and span files) goes under .bench_build
# in the current directory. Without the repository around benchmark/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off
export SWARM_GRAPH_CACHE="$out/graphs"
unset SWARM_DATA_DIR

(cd "$root/benchmark" && go build -buildvcs=false -o "$out/swarmbench" .)
exec "$out/swarmbench" "$@"
