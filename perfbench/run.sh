#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload adapt --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temporary files, binary, traces)
# stays under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
