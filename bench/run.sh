#!/usr/bin/env bash
# Builds linqbench from this checkout and runs it; linqbench then builds
# cmd/linqd (untimed) and runs the requested workload against it.
#
# Run from the repository root:
#
#   bash bench/run.sh --workload intake-small --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binaries stay under
# .bench_build/ in the checkout; journals and span files go to bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build/linqbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$build/linqbench" ./linqbench)
exec "$build/linqbench" "$@"
