#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload wire-mixed --seed 1 --seconds 15 --trace 0
# Every build and run artifact stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a simcloud checkout" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command's own state (telemetry counters) goes there too.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
