#!/usr/bin/env bash
# Builds the srlproc benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, scratch stores, spans) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
out=$build/perfbench
mkdir -p "$out/tmp" "$build/gocache" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$build/config GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
