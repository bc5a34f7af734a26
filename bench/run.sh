#!/bin/sh
# Build the benchmark from this checkout and run it. From the
# repository root:
#
#   sh bench/run.sh --workload sweep-small --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the Go config all live in
# .bench_build/, so a run reads and writes only inside the checkout and
# never reaches the network. See bench/README.md.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
