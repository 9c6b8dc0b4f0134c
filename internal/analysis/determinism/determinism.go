// Package determinism keeps the simulators reproducible. netsim and
// dessim results are only comparable across runs (and across refactors —
// the property every simulator regression test relies on) if all
// randomness flows from an explicit seed and all time is simulated.
// The rule therefore bans the two ambient-state escape hatches inside the
// simulation packages: wall-clock reads (time.Now, time.Since) and the
// process-global math/rand generator. Seeded *rand.Rand instances and
// rand.New/NewSource remain legal — they are the sanctioned way in.
package determinism

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"repro/internal/analysis"
)

// guarded names the packages (by final import-path element) whose outputs
// must be a pure function of their inputs and seeds.
var guarded = map[string]bool{
	"netsim": true,
	"dessim": true,
	"gen":    true,
}

// bannedTime are the wall-clock reads.
var bannedTime = map[string]bool{"Now": true, "Since": true}

// Analyzer is the reproducibility rule.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "simulation packages must not read the wall clock or the global math/rand generator",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !guarded[path.Base(pass.Path)] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Methods (e.g. (*rand.Rand).Intn on a seeded generator) are
			// fine; only package-level functions carry ambient state.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTime[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock; simulation code must use the simulated clock",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !strings.HasPrefix(fn.Name(), "New") {
					pass.Reportf(sel.Pos(),
						"global %s.%s is shared process state; draw from a seeded *rand.Rand instead",
						fn.Pkg().Name(), fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
