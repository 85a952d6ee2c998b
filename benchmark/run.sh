#!/usr/bin/env bash
# The command of BENCHMARK.json: build cmd/bench and run it with the driver's
# arguments. Everything the Go toolchain writes (build cache, link scratch,
# binaries) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C benchmark build -o "$build/bin/bench" ./cmd/bench
exec "$build/bin/bench" -paced=false "$@"
