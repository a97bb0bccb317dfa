#!/usr/bin/env bash
# Regenerates the benchmark's model fixtures with the repository's own
# training code (cmd/asrtrain) and rewrites fixtures/SHA256SUMS.
# Small-scale training takes a few minutes. Run from the repository
# root, then regenerate the golden file:
#
#   bash perfbench/regen_fixtures.sh
#   bash perfbench/run.sh -write-golden 0-31
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin" "$build/models"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/bin/" repro/cmd/asrtrain)
"$build/bin/asrtrain" -scale tiny -out "$build/models"
"$build/bin/asrtrain" -scale small -out "$build/models"
cp "$build/models/small-prune00.model" "$build/models/tiny-prune90.model" "$root/perfbench/fixtures/"
(cd "$root/perfbench/fixtures" && sha256sum small-prune00.model tiny-prune90.model >SHA256SUMS)
cat "$root/perfbench/fixtures/SHA256SUMS"
