#!/usr/bin/env bash
# Builds the benchmark from the checkout this script lives in, then runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload forest-blob --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traces stay under .bench_build/ in the
# checkout. Run it from the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/bench" .) >&2

exec "$out/bench" "$@"
