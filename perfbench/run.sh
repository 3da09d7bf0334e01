#!/usr/bin/env bash
# Builds the fleet-twin benchmark from source and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload lb-steady-1k --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build and every Go cache it needs
# stay under .bench_build/ in that directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
