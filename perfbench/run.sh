#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload control --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, temporary WAL directories and span files
# all live under .bench_build/ in the checkout, so a run writes nothing
# outside it. No network is used: the module has no dependencies beyond
# the repository itself.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

# Keep the go tool's cache, module path, temporary files and its config
# (including local telemetry counters) inside the checkout.
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/viaperf" .)
exec "$out/viaperf" --out "$out" "$@"
