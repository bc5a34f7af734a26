#!/usr/bin/env sh
# vet.sh — build xnuma-vet and run the invariant analyzers (maporder,
# detrand, noalloc, aliasretain) over the whole module. xnuma-vet loads
# each package through `go list`, so it checks the file set the compiler
# builds, and exits non-zero on findings.
#
#   scripts/vet.sh                  # analyze ./...; exit non-zero on findings
#   scripts/vet.sh -suppressions    # inventory of //xnuma:*-ok suppressions
#                                   # instead of checking
set -eu
cd "$(dirname "$0")/.."

mkdir -p bin
go build -o bin/xnuma-vet ./cmd/xnuma-vet
exec ./bin/xnuma-vet "$@" ./...
