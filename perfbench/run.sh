#!/usr/bin/env bash
# Builds the benchmark and cmd/resultsd from the checkout's sources into
# .bench_build/ and runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper_suite --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it writes, the Go
# build cache included, stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off \
	GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
go build -o "$out/resultsd" ./cmd/resultsd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Not exec: the benchmark reads its children's peak RSS, and an exec'd
# process would inherit the build commands' figures.
"$out/perfbench" -root "$root" -resultsd "$out/resultsd" "$@"
