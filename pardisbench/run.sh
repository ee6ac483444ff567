#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#
#   bash pardisbench/run.sh --workload bulk-central --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Every build product, cache and temporary
# file goes under .bench_build/ there.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
bin="$out/pardisbench"
go build -C "$here" -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
