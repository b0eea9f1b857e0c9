#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given, e.g.
#
#   bash qkbench/run.sh --workload train-gram --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/qkbench" ]]; then
	echo "qkbench: run from the repository root (go.mod and qkbench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
(cd "$root/qkbench" && go build -o "$out/qkbench" .)
exec "$out/qkbench" "$@"
