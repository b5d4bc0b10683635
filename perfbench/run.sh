#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with
# the given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload postmark --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes (the binary, the Go build cache, spans
# and CPU profiles) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@" --out "$out"
