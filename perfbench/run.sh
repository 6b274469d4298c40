#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload churn --seed 7 --seconds 12 --trace 0
#
# Run from the repository root. The build cache, module cache and binary go
# to .bench_build/ under the current directory, so nothing is written
# outside the checkout; the build fails, and the script exits non-zero,
# when the decaynet module is not next to this directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the build directory too.
(cd "$here" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
