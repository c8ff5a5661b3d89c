#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload hit-single --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build and the run write
# (Go build cache, binary, sealed artifact, traces) stays under
# ${CARGO_TARGET_DIR:-.bench_build}.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"

(
  cd perfbench
  env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
    GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
    GOFLAGS=-mod=mod GOTELEMETRY=off \
    go build -buildvcs=false -o "$build/perfbench" . >&2
)

exec "$build/perfbench" --out "$build/perfbench-out" "$@"
