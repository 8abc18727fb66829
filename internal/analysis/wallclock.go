package analysis

import (
	"go/ast"
	"go/types"
)

// WallClock flags time.Now, time.Since and time.Sleep calls in
// result-affecting packages outside the allowlisted deadline/metrics call
// sites. Wall-clock readings that reach a Result make equal requests
// produce unequal bytes, which breaks the service cache's byte-identity
// guarantee and poisons any dataset that serializes them; a sleep shifts
// every deadline-relative outcome the same way without ever appearing in
// a Result, which is worse to debug.
//
// Legitimate clock uses fall in two families, allowlisted by enclosing
// function below: deadline enforcement (a time budget may cut an II sweep
// short — that is already part of the cache key, see service.cacheKey) and
// latency metrics (reported via /metrics, never part of a Result except
// the documented Duration field, which the cache zeroes on hits).
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "time.Now/time.Since/time.Sleep in a result-affecting package outside allowlisted deadline/metrics sites",
	Run:  runWallClock,
}

// wallclockAllowed maps a result package (path suffix) to the functions in
// it that may read the clock. Keep this list small and audited: every entry
// is either a deadline check or a metrics/duration measurement.
var wallclockAllowed = map[string][]string{
	"internal/mapper": {
		"Map",        // start time for TimeLimit + Result.Duration
		"MapGreedy",  // Result.Duration measurement
		"anneal",     // TimeLimit deadline check inside the movement loop
		"sweep",      // II sweep's shared-deadline check (same start as Map)
		"pickWinner", // portfolio Result.Duration measurement
	},
	"internal/ilp": {
		"Map",     // start time for the sweep's time limit + Result.Duration
		"mapAtII", // per-II solver deadline + the sweep's deadline checks
		"Solve",   // solver TimeLimit deadline
		"timeUp",  // deadline check in the search loop
	},
	"internal/fault": {
		"Inject", // latency-mode sleep IS the injected fault; fires only with a plan armed
	},
	"internal/service": {
		"New",           // metrics start timestamp (uptime)
		"runMapping",    // per-engine latency histogram sample
		"handleMetrics", // /metrics snapshot timestamp
	},
}

func runWallClock(pass *Pass) {
	if !inResultPackage(pass.Pkg.Path) {
		return
	}
	allowed := map[string]bool{}
	for suffix, funcs := range wallclockAllowed {
		if pathHasSuffix(pass.Pkg.Path, suffix) {
			for _, fn := range funcs {
				allowed[fn] = true
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && allowed[fd.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				if name := fn.Name(); name == "Now" || name == "Since" || name == "Sleep" {
					pass.Reportf(call.Pos(),
						"time.%s outside an allowlisted deadline/metrics site leaks wall-clock into result-affecting code; add the enclosing function to wallclockAllowed (with justification) or restructure",
						name)
				}
				return true
			})
		}
	}
}
