#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout, passing every argument through:
#
#   bash benchmark/run.sh --workload programs --seed 3 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the Go
# command's local telemetry, the binary, span files of traced runs) stays
# under .bench_build/ in the checkout. The build is offline: no module is
# downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
