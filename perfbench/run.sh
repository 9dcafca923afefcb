#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload interp --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, its own settings) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/home" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
