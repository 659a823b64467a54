#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload corpus --seed 1 --seconds 15 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) stays under
# .bench_build in the current directory, or under $CARGO_TARGET_DIR when it
# is set, and the build never touches the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd benchmark && go build -o "$out/zpre-benchmark" .)
exec "$out/zpre-benchmark" "$@"
