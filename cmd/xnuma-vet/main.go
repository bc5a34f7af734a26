// Command xnuma-vet runs the repo's invariant analyzers (maporder,
// detrand, noalloc — see internal/analysis) over package patterns,
// ./... by default, and exits 2 on findings:
//
//	go run ./cmd/xnuma-vet ./...
//
// scripts/vet.sh, the CI entry point, builds it into bin/ and runs it
// over the module. It is not a `go vet -vettool`: go vet's handshake
// flag gets the usage error.
package main

import "repro/internal/analysis"

func main() {
	analysis.VetMain()
}
