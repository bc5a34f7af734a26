package analysis

import "strings"

// DetCriticalPackages are the packages whose outputs feed the
// deterministic result tables: everything the golden engine fixture,
// the seed-keyed cell cache and the resident sweep service (`xnuma
// serve`) assume is bit-for-bit reproducible at any worker count.
// maporder polices these.
var DetCriticalPackages = []string{
	"repro/internal/engine",
	"repro/internal/exp",
	"repro/internal/mem",
	"repro/internal/carrefour",
	"repro/internal/xen",
	"repro/internal/guest",
}

// simPackagePrefix scopes detrand: every package under internal/ models
// the simulated machine and must take randomness and time only from
// internal/sim: its seeded streams and virtual time (sim.Time), which
// the engine's epoch loop advances. The cmd/ layer (CLI progress
// timing, profiling) legitimately reads the wall clock.
const simPackagePrefix = "repro/internal/"

// detCritical reports whether pkgPath is determinism-critical.
func detCritical(pkgPath string) bool {
	for _, p := range DetCriticalPackages {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// simPackage reports whether pkgPath is a simulation-model package.
func simPackage(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, simPackagePrefix)
}
