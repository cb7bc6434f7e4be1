#!/usr/bin/env bash
# Builds the benchmark and the shipped ivory-exp from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root (Go build cache included). Exits non-zero without a
# result if the repository's sources are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps its settings and telemetry under the user config
# directory; point it into the build directory too.
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/ivory-exp" ./cmd/ivory-exp
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" "$@"
