#!/usr/bin/env bash
# Builds pargeo-serve and the benchmark from the enclosing tree, then runs
# one benchmark run. Arguments are passed on, for example:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and scratch files stay in the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build, under the root
# of the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/bin/pargeo-serve" ./cmd/pargeo-serve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -server "$build/bin/pargeo-serve" -work "$build/work" -spans "$build/spans" \
	-manifest BENCHMARK.json "$@"
