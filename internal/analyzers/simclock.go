package analyzers

import (
	"go/ast"
	"strconv"
)

// SimClock keeps host time and host randomness out of the simulator.
// Simulated executions are deterministic functions of (config, seed):
// virtual time comes from the cost model, randomness from the
// per-thread xorshift streams (internal/rng). A stray time.Now or
// math/rand call inside a simulator package silently couples results to
// the wall clock or the host RNG and breaks replay, snapshots, and the
// bit-identical guarantees the tests pin.
//
// Host-side packages (internal/explore's parallel driver, the cmd
// front-ends, scripts) legitimately read the wall clock for budgets and
// progress output, so the check applies only to the simulator deny-list
// below.
var SimClock = &Analyzer{
	Name: "simclock",
	Doc:  "no time.Now/time.Since/time.Sleep or math/rand in simulator packages",
	Run:  runSimClock,
}

// simPackages are the deterministic-simulation packages, by directory.
var simPackages = map[string]bool{
	"internal/alloc":    true,
	"internal/bench":    true,
	"internal/core":     true,
	"internal/cost":     true,
	"internal/ds":       true,
	"internal/mem":      true,
	"internal/metrics":  true,
	"internal/prog":     true,
	"internal/reclaim":  true,
	"internal/rng":      true,
	"internal/sanitize": true,
	"internal/sched":    true,
	"internal/snap":     true,
	"internal/topo":     true,
	"internal/trace":    true,
	"internal/word":     true,
	"internal/workload": true,
}

// bannedTimeFuncs are the wall-clock entry points; the time package's
// types (time.Duration as a config field) remain fine.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

func runSimClock(p *Pass) {
	if !simPackages[p.Dir] {
		return
	}
	for _, f := range p.Files {
		// Import-level: math/rand (and v2) never belongs in the simulator;
		// determinism lives in internal/rng.
		timeAlias := ""
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case path == "math/rand" || path == "math/rand/v2":
				p.Reportf(imp.Pos(), "simulator package %s imports %s: use the per-thread internal/rng streams", p.Dir, path)
			case path == "time":
				timeAlias = "time"
				if imp.Name != nil {
					timeAlias = imp.Name.Name
				}
			}
		}
		if timeAlias == "" || timeAlias == "_" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeAlias && bannedTimeFuncs[sel.Sel.Name] {
				p.Reportf(call.Pos(), "simulator package %s calls time.%s: virtual time comes from the cost model (sched.Thread.VTime), not the wall clock", p.Dir, sel.Sel.Name)
			}
			return true
		})
	}
}
