#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload vip-trio --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay under .bench_build, so a
# run writes nothing outside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
