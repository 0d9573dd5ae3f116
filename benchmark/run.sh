#!/usr/bin/env bash
# Builds the benchmark from source and runs it, the way BENCHMARK.json's
# command does. Everything the build writes (Go build cache, temporary
# files, the binary) and everything the run writes (result caches of the
# campaign workload) stays under .bench_build at the root of the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -tmp "$build/tmp" "$@"
