#!/usr/bin/env bash
# Builds the benchmark and prsimserve from the checkout this is run in, then
# runs the benchmark with the given arguments, for example
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Builds, caches and temporary files
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/prsimserve" prsim/cmd/prsimserve)
exec "$out/bin/perfbench" -server "$out/bin/prsimserve" -workdir "$out/tmp" "$@"
