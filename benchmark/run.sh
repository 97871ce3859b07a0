#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout and
# runs it from the checkout's root. Everything the Go toolchain writes
# (build cache included) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/govolve-benchmark" .
cd "$root"
exec "$build/govolve-benchmark" "$@"
