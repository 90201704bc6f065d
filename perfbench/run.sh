#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# executes it from the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's temporary files all
# stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
