#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command BENCHMARK.json
# names. Everything the build writes (Go's build cache, its temporary
# files, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
