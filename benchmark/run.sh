#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. BENCHMARK.json names this script as the command:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain and the benchmark write (build cache,
# binary, index directories) goes under .bench_build/ at the root of the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/topn-benchmark" .)
exec "$build/topn-benchmark" -workdir "$build" "$@"
