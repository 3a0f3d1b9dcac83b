#!/usr/bin/env bash
# Builds p2pserve and the benchmark from this source tree, then runs one
# benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the tree (Go build cache included), and the Go toolchain is kept
# offline and local.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go build -o "$out/p2pserve" ./cmd/p2pserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --bin "$out/p2pserve" --out "$out" "$@"
