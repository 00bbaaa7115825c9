#!/usr/bin/env bash
# Builds the benchmark and the altd daemon from source and runs the
# benchmark; run it from the repository root. Every build product and
# cache stays under .bench_build in the current directory. Arguments pass
# through to the benchmark, e.g.
#
#   bash cmd/altbench/run.sh -workload nsfnet-replay -seed 1 -seconds 15 -trace 0
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C cmd/altbench build -o "$out/altbench" .
go -C cmd/altbench build -o "$out/altd" repro/cmd/altd
exec "$out/altbench" -altd "$out/altd" -spans "$out/altbench-spans.jsonl" "$@"
