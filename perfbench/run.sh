#!/usr/bin/env bash
# Builds the benchmark and the asrserve binary it drives, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload decode-dense --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and output stays under .bench_build in
# the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/bin/" . repro/cmd/asrserve)

exec "$build/bin/perfbench" \
	-fixtures "perfbench/fixtures" \
	-golden "perfbench/golden.json" \
	-serve-bin "$build/bin/asrserve" \
	-out "$build" \
	"$@"
