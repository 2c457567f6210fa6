#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ of the checkout (Go caches included, so nothing is written
# outside it) and runs it. Arguments pass through to the program.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/hyrise-bench" . >&2
exec "$build/hyrise-bench" --root "$root" "$@"
