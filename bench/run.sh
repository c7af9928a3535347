#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# started from and runs it there with the arguments given. Everything the Go
# toolchain writes — build cache, temporary files, its per-user counters —
# stays inside the checkout too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go -C "$here" build -o "$build/lbmm-bench" .
exec "$build/lbmm-bench" "$@"
