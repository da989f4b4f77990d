#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Everything the build and the run write
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/config" "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export TMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS= GOWORK=off

# Build to a private name, then rename: concurrent runs never execute a
# half-written binary.
tmp="$out/bin/perfbench.$$"
(cd "$root/perfbench" && go build -o "$tmp" .)
mv -f "$tmp" "$out/bin/perfbench"
exec "$out/bin/perfbench" "$@"
