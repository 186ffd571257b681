#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary and everything the Go tool
# writes (build cache, temporary files, its configuration directory) go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout, and nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export CARGO_TARGET_DIR=$out
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
