#!/usr/bin/env bash
# Builds the rsnperf benchmark from the checkout's sources and runs it.
# Every build artifact (binary, Go build cache, the go command's own
# config and telemetry files) stays under .bench_build at the checkout
# root, so the run writes nothing outside the checkout.
# Usage: bash rsnperf/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0 \
	go -C "$root/rsnperf" build -o "$out/rsnperf" .
cd "$root"
exec "$out/rsnperf" "$@"
