#!/usr/bin/env bash
# Builds knivesbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash knivesbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, WAL directories and traces.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/knivesbench" && go build -o "$out/bin/knivesbench" .) >&2
exec "$out/bin/knivesbench" "$@"
