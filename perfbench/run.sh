#!/usr/bin/env bash
# Builds cisgraphd and the benchmark from the working tree, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload manyq-binary --seed 1 --seconds 30 --trace 0
#
# Build output, the Go build cache, run directories and trace files all
# stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go build -o "$out/cisgraphd" ./cmd/cisgraphd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -daemon "$out/cisgraphd" -out "$out" "$@"
