#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload pmm-n1024 --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build in the checkout, and nothing is fetched: the benchmark
# module depends only on the repository module next to it. Without that
# module (a directory holding only the benchmark) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
