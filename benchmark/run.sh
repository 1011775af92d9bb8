#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root.  Everything the build and the run write stays under
# .bench_build/ and .bench_tmp/ there.
#
#   bash benchmark/run.sh --workload wire_read_zipf --seed 1 --seconds 20 --trace 0
set -euo pipefail
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off
# The commit is stamped into the binary where the checkout is a git
# repository whose ownership git accepts; elsewhere the build does without.
(cd "$(dirname "${BASH_SOURCE[0]}")" &&
	{ go build -o "$build/mvgc-benchmark" . 2>/dev/null || go build -buildvcs=false -o "$build/mvgc-benchmark" .; })
exec "$build/mvgc-benchmark" "$@"
