#!/usr/bin/env bash
# Builds the benchmark and the amgserve binary from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash cmd/amgbench/run.sh --workload amg-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, binaries, span files). The build fails, and
# the script exits non-zero, when the repository sources are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# Offline and reproducible: no user go env file, never fetch a toolchain
# or a module.
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(
	cd cmd/amgbench
	go build -o "$out/bin/amgbench" .
	go build -o "$out/bin/amgserve" mis2go/cmd/amgserve
)
exec "$out/bin/amgbench" -out "$out" "$@"
