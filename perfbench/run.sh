#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload screen-s1-nas --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build in the working directory, and no
# module is fetched: the benchmark depends on the repository alone.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
