#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it:
#
#   bash perfbench/run.sh --workload discovery --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ there: the Go build cache, temporary
# files, the binary, scratch journals and trace spans. The toolchain is
# the local one and nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/perfbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

go build -C perfbench -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" "$@"
