#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the Go toolchain writes (build cache,
# temporary files, telemetry counters) is kept under .bench_build/ so a
# run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C benchmark -o "$build/legate-benchmark" . >&2
exec "$build/legate-benchmark" "$@"
