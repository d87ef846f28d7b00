#!/usr/bin/env bash
# Builds wfbench from the sources of the checkout it is run from and runs it
# with the given arguments. Run it from the repository root:
#
#   bash cmd/wfbench/run.sh --workload warm-hits --seed 1 --seconds 25 --trace 0
#   bash cmd/wfbench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the binary, the Go build cache and temporary files here,
# spill directories and span files by wfbench's default --workdir. Nothing is
# downloaded; wfbench uses only the standard library and the repository's own
# packages.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C "$root/cmd/wfbench" build -o "$out/wfbench" .
exec "$out/wfbench" "$@"
