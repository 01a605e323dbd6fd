#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash bench/run.sh --workload core-mmt --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build
# in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -buildvcs=false -o "$out/mmtperf" .
exec "$out/mmtperf" "$@"
