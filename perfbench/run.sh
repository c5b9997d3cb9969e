#!/usr/bin/env bash
# Builds the eyeWnder benchmark from this checkout's sources and runs it
# from the checkout root. Every build and run artifact (Go build cache,
# binary, data directories, traces) stays under .bench_build/.
#
#   bash perfbench/run.sh --workload ingest_paper --seed 1 --seconds 12 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/bin/perfbench" .)
# Flush what the build wrote, so its writeback does not slow the fsyncs
# of the first measured run.
sync -f "$out/bin/perfbench"
cd "$root"
exec "$out/bin/perfbench" "$@"
