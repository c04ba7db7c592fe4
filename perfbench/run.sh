#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout, then runs it
# with the given arguments:
#
#   bash perfbench/run.sh --workload views-exec --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every build artifact (binary, Go
# build cache, Go's own config files) stays under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
