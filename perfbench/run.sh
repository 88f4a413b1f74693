#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload plate-serve --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every build artifact (Go build cache,
# temporary files, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-mod" "$build/go-path" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
