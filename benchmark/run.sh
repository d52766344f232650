#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the caller's arguments. Everything the go command writes (build cache,
# module path, telemetry counters) is pointed into .bench_build so the
# run touches nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/spinbench" .)
cd "$root"
exec "$build/spinbench" "$@"
