#!/usr/bin/env bash
# Builds the authperf benchmark from source and runs it with the given
# arguments. Run from the repository root, for example:
#
#   bash bench/run.sh -workload sweep-core -seed 1 -seconds 10 -trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, result files, traces and
# scratch result stores. Nothing is downloaded.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's user configuration and telemetry
# counters inside the build directory as well.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd bench && go build -buildvcs=false -o "$build/bin/authperf" ./authperf)
exec "$build/bin/authperf" "$@"
