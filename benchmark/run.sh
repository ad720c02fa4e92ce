#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, work
# files, its own configuration) is kept under .bench_build, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	go build -C benchmark -o "$build/ringo-benchmark" .
exec "$build/ringo-benchmark" "$@"
