#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash sweepbench/run.sh --workload paper-matrix --seed 1 --seconds 40 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, generated spec files,
# CPU profiles and spans. The benchmark needs the repository's sources;
# without them the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/sweepbench" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

(cd sweepbench && go build -o "$build/sweepbench/sweepbench" .)
exec "$build/sweepbench/sweepbench" -out "$build/sweepbench" "$@"
