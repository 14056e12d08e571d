#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given flags. Run it from the repository root; the binary and the Go
# build cache go to .bench_build/ there, so nothing is written outside it.
#
#   bash bench/run.sh -workload overlay-write -seed 42 -seconds 10
#   bash bench/run.sh --workload overlay-write --seed 42 --seconds 10 --trace 1
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
