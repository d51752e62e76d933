package analysis

import (
	"go/ast"
	"go/types"
)

// simCoreSuffixes are the packages whose behavior must be a pure
// function of configuration and seed: everything a simulated cycle
// touches, plus the experiments layer that aggregates results.
var simCoreSuffixes = []string{
	"internal/amp",
	"internal/sched",
	"internal/cpu",
	"internal/interval",
	"internal/monitor",
	"internal/fault",
	"internal/workload",
	"internal/manycore",
	"internal/experiments",
	"internal/pairstore",
	"internal/jobqueue",
	"internal/server",
	"internal/wal",
	// The fleet layer routes by content address: placement must be a
	// pure function of membership and spec bytes, so the one
	// wall-clock piece (the heartbeat ticker) carries an audited allow
	// instead of exempting the package.
	"internal/cluster",
}

// bannedTimeFuncs are the wall-clock entry points of package time.
// Simulation code measures time in cycles; components that genuinely
// need wall time (progress logging, run-duration telemetry) take an
// injected clock or carry an audited //ampvet:allow.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"After":     true,
	"AfterFunc": true,
}

// nondeterministicImports are packages whose global state defeats
// seeded reproduction. internal/rng is the sanctioned source of
// randomness: explicit seed, SplitMix64, bit-stable across runs.
var nondeterministicImports = map[string]string{
	"math/rand":    "use the seeded internal/rng source instead of global math/rand",
	"math/rand/v2": "use the seeded internal/rng source instead of global math/rand/v2",
	"crypto/rand":  "crypto/rand is nondeterministic by design; simulation code must draw from internal/rng",
}

// DeterminismAnalyzer enforces bit-reproducibility in simulation-core
// packages: no wall clocks, no unseeded randomness, no map iteration
// (Go randomizes range order, so any map walk that feeds results or
// swap decisions breaks identical-seed reproduction).
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, global math/rand and map iteration in simulation-core packages; " +
		"runs must be pure functions of configuration and seed",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !inSimCore(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := importPath(imp)
			if why, ok := nondeterministicImports[path]; ok {
				pass.Reportf(imp.Pos(), "import of %s breaks seeded reproducibility: %s", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if fn, ok := pass.Info.Uses[n.Sel].(*types.Func); ok {
					if fn.Pkg() != nil && fn.Pkg().Path() == "time" && bannedTimeFuncs[fn.Name()] {
						pass.Reportf(n.Pos(),
							"time.%s reads the wall clock; simulation code must count cycles or take an injected clock",
							fn.Name())
					}
				}
			case *ast.RangeStmt:
				if n.Key == nil && n.Value == nil {
					return true // body can't observe the iteration order
				}
				if tv, ok := pass.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(),
							"map iteration order is randomized and can leak into results or swap decisions; "+
								"iterate over sorted keys or annotate an audited //ampvet:allow determinism")
					}
				}
			}
			return true
		})
	}
	return nil
}

func inSimCore(pkg *types.Package) bool {
	for _, s := range simCoreSuffixes {
		if pkgPathIs(pkg, s) {
			return true
		}
	}
	return false
}

func importPath(imp *ast.ImportSpec) string {
	p := imp.Path.Value
	if len(p) >= 2 {
		p = p[1 : len(p)-1]
	}
	return p
}
