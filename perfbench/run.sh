#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload solve|stream|simulate --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. Every file it writes (the Go
# build cache, the binary, data directories, span files) goes under
# the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the root of a repository checkout" >&2
    exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/go-path" "$build/go-tmp" "$build/home" "$build/perfbench"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/go-tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

go build -C perfbench -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" -work "$build/perfbench" "$@"
