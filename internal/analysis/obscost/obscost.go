// Package obscost keeps the observability layer honest about its cost.
// Its contract is "zero-cost when off": the uninstrumented branch of
// every hot path must not touch internal/obs at all. That only holds if
// obs calls are quarantined where the convention puts them: files named
// obs.go, the wiring and wrapper layer of each package. Hot code calls the
// nil-safe wrappers declared there, never internal/obs itself.
//
// The check is type-based, not textual: any call that resolves to a
// function or method declared in repro/internal/obs is a violation, even
// when the receiver is reached through a local struct field (for example
// o.Tracer.Start, where Start belongs to *obs.Tracer). Type references —
// struct fields, signatures, var declarations — are free and stay legal
// everywhere.
package obscost

import (
	"go/ast"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

const obsPath = "repro/internal/obs"

// Analyzer is the obs-quarantine rule.
var Analyzer = &analysis.Analyzer{
	Name: "obscost",
	Doc:  "only obs.go files may call into internal/obs",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// The rule guards library code. cmd/ binaries are the wiring layer
	// (they build registries and mount HTTP handlers), and internal/obs
	// itself obviously calls itself.
	if !strings.HasPrefix(pass.Path, "repro/internal/") || pass.Path == obsPath {
		return nil
	}
	for _, f := range pass.Files {
		pos := pass.Fset.Position(f.Pos())
		if filepath.Base(pos.Filename) == "obs.go" {
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
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != obsPath {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to %s.%s outside an obs.go file breaks the zero-cost-when-off contract",
				obj.Pkg().Name(), obj.Name())
			return true
		})
	}
	return nil
}
