#!/usr/bin/env bash
# Builds eeserve and the perfbench load generator from the checkout in
# the current directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload read_cold --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binaries and the run's scratch data.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/eeserve" ./cmd/eeserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -eeserve "$out/bin/eeserve" -work "$out/work" "$@"
