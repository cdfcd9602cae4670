#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload bng-serve --seed 3 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything the build and the
# runs write stays under .bench_build/ there.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
