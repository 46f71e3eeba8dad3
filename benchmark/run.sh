#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache and binary under
# .bench_build/, nothing outside the tree) and runs it with the given
# arguments from the directory it was called in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Everything the go command writes stays under .bench_build: its build
# cache, its module cache (unused: the module has no dependencies beyond
# this repository), and its telemetry counters, which follow the user
# configuration directory. No user go/env file is read, nothing is
# fetched.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/ctperf" .
exec "$build/ctperf" "$@"
