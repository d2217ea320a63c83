#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's sources into benchmark/out/build/ (ignored, like the rest of
# out/) and runs it with the arguments given (--workload <name> --seed <n>
# --seconds <s> --trace <0|1>). Everything the build writes stays there.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/benchmark/out/build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTELEMETRYDIR="$build/telemetry"
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
