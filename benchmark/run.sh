#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given:
#
#   bash benchmark/run.sh --workload embed-read --seed 1 --seconds 30 --trace 0
#
# Run from the root of the checkout (the directory that holds the
# repository's go.mod). Everything a run writes goes under benchmark/out/,
# inside the checkout: the Go build cache, temp files and the binary under
# .build/, next to the results, traces and WAL directories. The go tool is
# kept off the network and out of $HOME. In a directory without the
# repository's sources the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

build="$PWD/benchmark/out/.build"

# The commit goes into the result's fingerprint. The driver's checkout is
# not a git repository; there it reads "unknown".
BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT

# HOME too: the go tool keeps its environment file and its telemetry
# counters under the user's configuration directory.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/mod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
mkdir -p "$GOTMPDIR" "$build/bin" "$HOME"
(cd benchmark && go build -o "$build/bin/pargeo-benchmark" .)
exec "$build/bin/pargeo-benchmark" "$@"
