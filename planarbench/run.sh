#!/usr/bin/env bash
# Builds planarbench from source and runs it. Run it from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash planarbench/run.sh --workload repair-stream --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the run's data directories all live in
# .bench_build at the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/planarbench" && go build -o "$build/planarbench" .) >&2
exec "$build/planarbench" --workdir "$build" "$@"
