#!/usr/bin/env bash
# Builds the WYM binaries and the benchmark program from the checkout in
# the current directory, then runs one workload:
#
#   bash wymbench/run.sh --workload serve-online --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOENV=off

go build -o "$out/bin/" ./cmd/wym ./cmd/wym-server ./cmd/wym-router >&2
(cd "$root/wymbench" && go build -o "$out/bin/wymbench" .) >&2
exec "$out/bin/wymbench" -bin "$out/bin" -work "$out" "$@"
