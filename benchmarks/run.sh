#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind (Go build cache, binary, vault directories) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

go build -C "$here" -o "$build/nrbenchmark" .

cd "$root"
TMPDIR="$build/tmp" exec "$build/nrbenchmark" "$@"
