#!/usr/bin/env bash
# Builds dutbench from source and runs it with the given arguments. Run it
# from the repository root, e.g.
#
#   bash bench/run.sh --workload cluster-flat --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1                 # every workload, result file
#   bash bench/run.sh -compare A.json B.json  # check two result files
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays in .bench_build/ under the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$build/config"

go -C bench build -o "$build/dutbench" ./cmd/dutbench
exec "$build/dutbench" "$@"
