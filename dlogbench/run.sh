#!/usr/bin/env bash
# Builds dlogd and the benchmark program from the checkout this script
# sits in, then runs the benchmark with the given arguments, e.g.
#
#   bash dlogbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binaries, dlogd data
# directories) stays under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
# dlogd runs at its default GOMAXPROCS: the machine's core count.
unset GOMAXPROCS
(cd "$root" && go build -o "$out/dlogd" ./cmd/dlogd) >&2
(cd "$here" && go build -o "$out/dlogbench" .) >&2
exec "$out/dlogbench" -dlogd "$out/dlogd" -work "$out/work" "$@"
