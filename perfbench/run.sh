#!/usr/bin/env bash
# Builds the cardnet server and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sparse --seed 1 --seconds 15 --trace 0
#
# Build output, the Go build cache and run scratch files stay in the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cardnet || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/cardnet and perfbench/ are needed)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
gobuild() { XDG_CONFIG_HOME="$build/config" go build "$@"; }

gobuild -o "$build/cardnet" ./cmd/cardnet
(cd perfbench && gobuild -o "$build/perfbench" .)
exec "$build/perfbench" -cardnet "$build/cardnet" -workdir "$build" "$@"
