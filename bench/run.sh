#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs
# it with the given arguments. Every Go cache and temp dir is pointed
# inside .bench_build/, so a run reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/pimbench" .
exec "$build/pimbench" "$@"
