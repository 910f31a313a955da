#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see bench/README.md):
#
#   bash bench/run.sh --workload host-mix --seed 1 --seconds 28 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace directories all stay under .bench_build/ in that root, so nothing
# is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench: run from the repository root (needs go.mod and bench/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/bench" build -o "$out/bin/ceio-benchmark" .
exec "$out/bin/ceio-benchmark" "$@"
