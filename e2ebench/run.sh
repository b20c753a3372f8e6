#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# with the given arguments. Run from the root of the repository:
#
#   bash e2ebench/run.sh --workload sparse-sm --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the working directory. Without the
# simulator's sources next to e2ebench/ the build fails and so does the run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" "$@"
