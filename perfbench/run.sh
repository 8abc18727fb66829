#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, stores, trace files) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off

# go.mod replaces the lisa module with the enclosing tree; without it (a
# directory holding only the benchmark) the build fails, and so does the run.
go build -C "$root/perfbench" -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
