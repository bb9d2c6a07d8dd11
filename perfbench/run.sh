#!/usr/bin/env bash
# Builds recipeserver, recipemine and the benchmark program from the
# checkout it is started in (run it from the repository root), then
# runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload annotate-hot --seed 1 --seconds 25 --trace 0
#
# Build caches, binaries and temporary files all stay under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/recipeserver ./cmd/recipemine
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
