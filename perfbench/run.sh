#!/usr/bin/env bash
# Builds the benchmark (with the assembly GEMM kernels) from the checkout this
# script lives in and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload eig_n2048 --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the binary) stays
# under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -tags blasasm -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
