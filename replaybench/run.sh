#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments (see README.md). Run it from the
# root of the checkout:
#
#   bash replaybench/run.sh --workload spec-cold --seed 0 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary)
# stays under .bench_build/ in the checkout, and the Go toolchain is kept
# offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# Release builds use the committed PGO profile (see README.md at the
# root), so the benchmark measures the same build.
pgo=off
if [ -f "$root/default.pgo" ]; then
	pgo="$root/default.pgo"
fi
(cd "$root/replaybench" && go build -pgo="$pgo" -o "$out/replaybench" .)
exec "$out/replaybench" "$@"
