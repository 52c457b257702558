#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload contended-memlog --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the WAL
# directories, which the binary removes again.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

rev=unknown
if git -C "$here" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	rev="$(git -C "$here" rev-parse HEAD)"
	git -C "$here" diff --quiet HEAD -- . .. 2>/dev/null || rev="$rev-dirty"
fi

(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$rev" -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
