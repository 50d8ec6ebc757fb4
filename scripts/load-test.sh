#!/usr/bin/env bash
# load-test.sh — reproducible heavy-traffic runs of the sharded referee
# tree through `dut netdemo`.
#
# Usage:
#   scripts/load-test.sh [basic|throughput|chaos|wide-chaos] [extra netdemo flags...]
#
# Profiles:
#   basic       a mid-size tree on in-memory pipes: 1k players, 8
#               aggregators, strict verdicts — the smoke test for the
#               topology.
#   throughput  the pipelined wire protocol at scale: 10k players, 16
#               aggregators, batched rounds with windows in flight.
#   chaos       a quorum-mode tree under fault injection (crashed and
#               delayed players) with shuffled shard placement.
#   wide-chaos  the widest tree: 100k players behind 32 aggregators in
#               quorum mode, with crashed and delayed players and
#               batched rounds in flight.
#
# Every profile pins its seed, so two runs of the same profile exercise
# byte-identical traffic. Extra flags are passed through to netdemo and
# may override the profile's defaults (flag packages take the last
# occurrence).
set -euo pipefail

cd "$(dirname "$0")/.."

profile="${1:-basic}"
shift || true

run() {
    echo "+ dut netdemo $*" >&2
    go run ./cmd/dut netdemo "$@"
}

case "$profile" in
basic)
    run -n 1024 -k 1000 -q 4 -shards 8 -rounds 5 -batch 0 -seed 1 "$@"
    ;;
throughput)
    run -n 4096 -k 10000 -q 2 -bits 3 -shards 16 -rounds 64 \
        -batch 16 -window 4 -seed 2 "$@"
    ;;
chaos)
    run -n 1024 -k 1000 -q 4 -shards 8 -shardseed 7 -rounds 8 \
        -minvotes 900 -crash 20 -delay 2ms -batch 8 -window 2 -seed 3 "$@"
    ;;
wide-chaos)
    run -n 4096 -k 100000 -q 2 -shards 32 -shardseed 7 -rounds 8 \
        -minvotes 99000 -crash 200 -delay 1ms -batch 4 -window 2 -seed 5 "$@"
    ;;
*)
    echo "load-test.sh: unknown profile '$profile' (want basic, throughput, chaos or wide-chaos)" >&2
    exit 2
    ;;
esac
