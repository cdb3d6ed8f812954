#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash hostbench/run.sh --workload spec-c4 --seed 1 --seconds 10 --trace 0
#
# Every build and run product stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory, including Go's build cache.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$root/hostbench" && go build -o "$build/hostbench" .) >&2
exec "$build/hostbench" -out "$build/hostbench-out" "$@"
