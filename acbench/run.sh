#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root):
#   bash acbench/run.sh --workload <seed-cli|field-wire|ladder-chain> --seed N --seconds S --trace 0|1
# Every build artifact, cache and span file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/acbench" && go build -buildvcs=false -o "$out/acbench" .) >&2
exec "$out/acbench" -out "$out" "$@"
