#!/usr/bin/env bash
# Builds the job-level benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash jobbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build
# in the current directory; the Go toolchain is told never to fetch.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/jobbench" .)
exec "$out/jobbench" "$@"
