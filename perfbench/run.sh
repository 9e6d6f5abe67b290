#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it.
# Run from the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload compute --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, checkpoint stores, traces and CPU
# profiles all stay inside the build directory, $CARGO_TARGET_DIR
# (default .bench_build) under the checkout.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
