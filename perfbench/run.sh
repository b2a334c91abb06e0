#!/usr/bin/env bash
# Builds the programs under test (cmd/v6scan, cmd/v6scand) and the
# benchmark driver from this checkout, then runs the driver:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it builds, caches and writes stays under .bench_build
# (or $CARGO_TARGET_DIR when set), including Go's build cache.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/bin/" ./cmd/v6scan ./cmd/v6scand
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -out "$out" "$@"
