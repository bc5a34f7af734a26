package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Detrand bans ambient nondeterminism in the simulation packages: every
// package under internal/ models the simulated machine, so randomness
// must come from internal/sim's seeded xorshift streams and time from
// virtual time (sim.Time), which only the engine's epoch loop advances.
// Importing math/rand (or crypto/rand), reading time.Now, or consulting
// the environment mid-simulation would make results depend on the host
// instead of the seed.
var Detrand = &Analyzer{
	Name:  "detrand",
	Doc:   "ban math/rand, time.Now and os.Getenv in simulation packages",
	Scope: simPackage,
	Run:   runDetrand,
}

// bannedImports maps import path to the sanctioned replacement.
var bannedImports = map[string]string{
	"math/rand":    "internal/sim's seeded streams",
	"math/rand/v2": "internal/sim's seeded streams",
	"crypto/rand":  "internal/sim's seeded streams",
}

// bannedCalls maps package path -> function name -> why it is banned.
var bannedCalls = map[string]map[string]string{
	"time": {
		"Now":   "virtual time (sim.Time, advanced by the engine's epoch loop)",
		"Since": "virtual time (sim.Time, advanced by the engine's epoch loop)",
		"Until": "virtual time (sim.Time, advanced by the engine's epoch loop)",
	},
	"os": {
		"Getenv":    "explicit configuration threaded from cmd/",
		"LookupEnv": "explicit configuration threaded from cmd/",
		"Environ":   "explicit configuration threaded from cmd/",
	},
}

func runDetrand(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if repl, bad := bannedImports[path]; bad {
				pass.Reportf(imp.Pos(),
					"import of %s in a simulation package; draw randomness from %s so runs are a function of the seed",
					path, repl)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
			if !ok {
				return true
			}
			if repl, bad := bannedCalls[pn.Imported().Path()][sel.Sel.Name]; bad {
				pass.Reportf(sel.Pos(),
					"%s.%s in a simulation package; use %s instead so runs are a function of the seed",
					pn.Imported().Path(), sel.Sel.Name, repl)
			}
			return true
		})
	}
	return nil
}
