#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the binary.
# Run from the root of a checkout: `bash benchmark/run.sh --workload raw_scan
# --seed 1 --seconds 10 --trace 0`. Everything written stays in .bench_build/
# inside the checkout: the binary, the Go build cache, and what the go command
# would otherwise keep under $HOME (module cache, telemetry counters).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmark" build -o "$out/proteus-benchmark" .
exec "$out/proteus-benchmark" "$@"
