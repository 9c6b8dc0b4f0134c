// Package obscost keeps the observability layer honest about its cost.
// PR 2's contract is "zero-cost when off": the uninstrumented branch of
// every hot path must not touch internal/obs at all. That only holds if
// obs calls are quarantined where the convention puts them — files named
// obs.go (the wiring and wrapper layer) and functions whose name ends in
// Observed (the explicitly instrumented twins of hot-path functions).
//
// The check is type-based, not textual: any call that resolves to a
// function or method declared in repro/internal/obs is a violation, even
// when the receiver is reached through a local struct field (for example
// o.Tracer.Start, where Start belongs to *obs.Tracer). Type references —
// struct fields, signatures, var declarations — are free and stay legal
// everywhere.
//
// The *Observed exemption is narrower than the obs.go one: it sanctions
// the metric and span surface (counters, gauges, histograms, tracer
// spans), whose cost is a few atomic stores. The logging and
// request-tree surface (obs.Logger, Tracer.StartRequest and the Req
// handle it returns) formats and writes — I/O that has no place in a hot
// path's instrumented twin either. Those calls are confined to obs.go
// files, full stop.
package obscost

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

const obsPath = "repro/internal/obs"

// Analyzer is the obs-quarantine rule.
var Analyzer = &analysis.Analyzer{
	Name: "obscost",
	Doc:  "only obs.go files and *Observed functions may call into internal/obs",
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
		funcs := funcRanges(f)
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
			if fn := funcs.enclosing(call.Pos()); strings.HasSuffix(fn, "Observed") {
				if !ioBearing(obj) {
					return true
				}
				pass.Reportf(call.Pos(),
					"call to %s.%s: the logging/flight-recorder surface does I/O and is confined to obs.go files; the *Observed exemption does not apply",
					obj.Pkg().Name(), obj.Name())
				return true
			}
			pass.Reportf(call.Pos(),
				"call to %s.%s outside an obs.go file or *Observed function breaks the zero-cost-when-off contract",
				obj.Pkg().Name(), obj.Name())
			return true
		})
	}
	return nil
}

// ioBearing reports whether an obs object belongs to the logging or
// request-tree surface: the logger's constructor and methods, the tracer's
// StartRequest, and every method on the Req handle. These format and
// write, so *Observed functions may not call them.
func ioBearing(obj types.Object) bool {
	if obj.Name() == "NewLogger" {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() {
	case "Logger", "Req":
		return true
	case "Tracer":
		return fn.Name() == "StartRequest"
	}
	return false
}

// funcRange ties a declared function's body extent to its name, so calls
// inside closures inherit the enclosing declaration's exemption.
type funcRange struct {
	from, to token.Pos
	name     string
}

type funcRangeList []funcRange

func funcRanges(f *ast.File) funcRangeList {
	var rs funcRangeList
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			rs = append(rs, funcRange{from: fd.Pos(), to: fd.End(), name: fd.Name.Name})
		}
	}
	return rs
}

func (rs funcRangeList) enclosing(pos token.Pos) string {
	for _, r := range rs {
		if r.from <= pos && pos < r.to {
			return r.name
		}
	}
	return ""
}
