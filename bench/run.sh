#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, module cache and temporary files under .bench_build/,
# durable stores and span files under bench/out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
bin="$build/fluxbench"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off

# Rebuild only when a source file is newer than the binary: the driver
# makes some ninety runs per checkout and a no-op `go build` still costs
# a second each.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd "$root/bench" && go build -o "$bin" .)
fi
exec "$bin" "$@"
