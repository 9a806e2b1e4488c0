#!/usr/bin/env bash
# Builds the benchmark from the checkout it belongs to and runs it with the
# given arguments, from the current directory. The Go caches, the go
# command's own config and telemetry, the binary and everything the runs
# write stay under .bench_build/ there.
#
#   bash bench/run.sh --workload full-64 --seed 1 --seconds 20 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$(dirname "$0")" build -o "$build/bench" .
exec "$build/bench" "$@"
