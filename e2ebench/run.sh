#!/usr/bin/env bash
# Builds the benchmark and cmd/predictd from the checkout that holds this
# script, then runs the benchmark with the arguments given, e.g.
#
#   bash e2ebench/run.sh --workload study-apps --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root of the checkout: the Go build cache and temporary files, the
# binaries, the study journals, the predictd log and the span logs.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
(cd "$root" && go build -o "$out/bin/predictd" ./cmd/predictd)
cd "$root"
exec "$out/bin/e2ebench" --predictd "$out/bin/predictd" --out "$out" "$@"
