// Package lockguard enforces guarded-by contracts on struct fields. A
// field whose doc or line comment says
//
//	ring []Span // guarded by mu
//
// names a sibling mutex field (sync.Mutex or sync.RWMutex), and every
// read or write of that field must then happen with the mutex held on
// every path to the access. The check is a must-hold analysis over the
// statement structure: Lock/RLock set the held state, Unlock/RUnlock
// clear it, deferred unlocks keep it held to the end of the function,
// and branches merge by intersection (a lock taken in only one arm of an
// if does not count after the merge). Writes require the exclusive lock;
// an RLock only licenses reads.
//
// Two idioms are exempt without ceremony: accesses through a local bound
// to a fresh allocation (constructors mutate unpublished values), and
// functions annotated
//
//	//hhc:holds mu
//
// which declare that every caller already holds the named mutex (the
// Tracer.siftUp pattern — helpers only ever called under the
// recorder lock). Anything else needs a justified //lint:ignore.
package lockguard

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the guarded-by rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated `// guarded by <mu>` must only be accessed with that mutex held",
	Run:  run,
}

// guardRx extracts the mutex name from a field comment.
var guardRx = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guard records one annotated field: the object and its mutex's name.
type guard struct {
	mu string // sibling field name of the guarding mutex
}

// lockState is the must-hold state of one mutex expression: excl while
// Lock is held, shared while RLock (or Lock) is.
type lockState struct {
	excl, shared bool
}

func merge(a, b lockState) lockState {
	return lockState{excl: a.excl && b.excl, shared: a.shared && b.shared}
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, guards)
		}
	}
	return nil
}

// collectGuards finds every `// guarded by <mu>` field annotation and
// validates that the named mutex is a sibling field.
func collectGuards(pass *analysis.Pass) map[types.Object]guard {
	guards := make(map[types.Object]guard)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			names := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, nm := range fld.Names {
					names[nm.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				mu := guardNameOf(fld)
				if mu == "" {
					continue
				}
				if !names[mu] {
					pass.Reportf(fld.Pos(),
						"guarded-by annotation names %s, which is not a sibling field", mu)
					continue
				}
				for _, nm := range fld.Names {
					if obj := pass.Info.Defs[nm]; obj != nil {
						guards[obj] = guard{mu: mu}
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardNameOf extracts the guard mutex name from a field's doc or
// trailing comment.
func guardNameOf(fld *ast.Field) string {
	for _, cgr := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cgr == nil {
			continue
		}
		if m := guardRx.FindStringSubmatch(cgr.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// access is one guarded-field use found in a function body.
type access struct {
	sel   *ast.SelectorExpr
	field types.Object
	write bool
}

// checkFunc runs the must-hold evaluation over one function body and
// reports unguarded accesses.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, guards map[types.Object]guard) {
	holds := heldByDirective(fd)
	fresh := analysis.FreshLocals(fd, pass.Info)
	ev := &evaluator{pass: pass, guards: guards, holds: holds, fresh: fresh, fn: fd.Name.Name}
	ev.block(fd.Body.List, make(map[string]lockState))
}

// heldByDirective parses //hhc:holds mu[,mu2] into the set of mutex
// names the caller guarantees.
func heldByDirective(fd *ast.FuncDecl) map[string]bool {
	arg, ok := analysis.FuncDirective(fd, "holds")
	if !ok || arg == "" {
		return nil
	}
	out := make(map[string]bool)
	for _, name := range strings.FieldsFunc(arg, func(r rune) bool { return r == ',' || r == ' ' }) {
		out[name] = true
	}
	return out
}

// evaluator walks statements carrying the per-mutex held state.
type evaluator struct {
	pass   *analysis.Pass
	guards map[types.Object]guard
	holds  map[string]bool // //hhc:holds names
	fresh  map[types.Object]bool
	fn     string
	mute   int // >0 during probe passes: evaluate state, suppress reports
}

// block evaluates a statement list, mutating held in place, and returns
// whether control definitely leaves the function (return/panic) at the
// end of the list.
func (ev *evaluator) block(stmts []ast.Stmt, held map[string]lockState) bool {
	for _, st := range stmts {
		if ev.stmt(st, held) {
			return true
		}
	}
	return false
}

// stmt evaluates one statement: checks the accesses it contains against
// the current state, then applies its lock/unlock effects. Returns true
// when the statement definitely terminates the function.
func (ev *evaluator) stmt(st ast.Stmt, held map[string]lockState) bool {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if mu, op := lockCallOf(ev.pass, s.X); op != "" {
			ev.apply(held, mu, op)
			return false
		}
		ev.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the lock stays held for the
		// rest of the body. A deferred Lock would be bizarre; ignore both
		// for state. Accesses inside deferred closures are evaluated
		// conservatively (held state unknown -> empty).
		if _, op := lockCallOf(ev.pass, s.Call); op == "" {
			ev.checkExpr(s.Call, held)
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			ev.checkExpr(rhs, held)
		}
		for _, lhs := range s.Lhs {
			ev.checkWrite(lhs, held)
		}
	case *ast.IncDecStmt:
		ev.checkWrite(s.X, held)
	case *ast.IfStmt:
		if s.Init != nil {
			ev.stmt(s.Init, held)
		}
		ev.checkExpr(s.Cond, held)
		bodyHeld := copyState(held)
		bodyExit := ev.block(s.Body.List, bodyHeld)
		elseHeld := copyState(held)
		elseExit := false
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseExit = ev.block(e.List, elseHeld)
			case *ast.IfStmt:
				elseExit = ev.stmt(e, elseHeld)
			}
		}
		switch {
		case bodyExit && elseExit:
			return true
		case bodyExit:
			assign(held, elseHeld)
		case elseExit:
			assign(held, bodyHeld)
		default:
			assign(held, mergeStates(bodyHeld, elseHeld))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ev.stmt(s.Init, held)
		}
		if s.Cond != nil {
			ev.checkExpr(s.Cond, held)
		}
		bodyHeld := ev.loopBody(s.Body, held)
		if s.Post != nil {
			ev.stmt(s.Post, bodyHeld)
		}
		// The loop may run zero times; only state held both before and
		// after an iteration survives.
		assign(held, mergeStates(held, bodyHeld))
	case *ast.RangeStmt:
		ev.checkExpr(s.X, held)
		bodyHeld := ev.loopBody(s.Body, held)
		assign(held, mergeStates(held, bodyHeld))
	case *ast.SwitchStmt:
		if s.Init != nil {
			ev.stmt(s.Init, held)
		}
		if s.Tag != nil {
			ev.checkExpr(s.Tag, held)
		}
		return ev.caseBodies(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ev.stmt(s.Init, held)
		}
		ev.stmt(s.Assign, held)
		return ev.caseBodies(s.Body, held)
	case *ast.SelectStmt:
		return ev.caseBodies(s.Body, held)
	case *ast.BlockStmt:
		return ev.block(s.List, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			ev.checkExpr(r, held)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto: treat as terminating this path so state
		// from a locked loop-break arm does not leak into the merge.
		return true
	case *ast.GoStmt:
		// The spawned body runs concurrently: evaluate it with no locks
		// held (goroutinelife owns its lifecycle).
		ev.checkConcurrent(s.Call)
	case *ast.SendStmt:
		ev.checkExpr(s.Chan, held)
		ev.checkExpr(s.Value, held)
	case *ast.DeclStmt:
		ev.checkExpr(s.Decl, held)
	case *ast.LabeledStmt:
		return ev.stmt(s.Stmt, held)
	default:
		if st != nil {
			ev.checkExpr(st, held)
		}
	}
	return false
}

// loopBody evaluates a loop body and returns the end-of-iteration state.
// A first, muted pass discovers what one iteration does to the locks;
// the reporting pass then runs from the weakest iteration-entry state
// (entry merged with post-body), so a lock dropped at the bottom of the
// body correctly fails reads at the top of the next iteration.
func (ev *evaluator) loopBody(body *ast.BlockStmt, held map[string]lockState) map[string]lockState {
	probe := copyState(held)
	ev.mute++
	ev.block(body.List, probe)
	ev.mute--
	iter := mergeStates(held, probe)
	ev.block(body.List, iter)
	return iter
}

// caseBodies evaluates every clause of a switch/select with a copy of the
// incoming state and merges the survivors by intersection.
func (ev *evaluator) caseBodies(body *ast.BlockStmt, held map[string]lockState) bool {
	var merged map[string]lockState
	any := false
	allExit := true
	sawDefault := false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				ev.checkExpr(e, held)
			}
			if c.List == nil {
				sawDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				ev.stmt(c.Comm, copyState(held))
			} else {
				sawDefault = true
			}
			stmts = c.Body
		}
		clauseHeld := copyState(held)
		if ev.block(stmts, clauseHeld) {
			continue
		}
		allExit = false
		if !any {
			merged, any = clauseHeld, true
		} else {
			merged = mergeStates(merged, clauseHeld)
		}
	}
	if allExit && len(body.List) > 0 && sawDefault {
		return true
	}
	if any {
		if !sawDefault {
			// A switch without default may fall through untouched.
			merged = mergeStates(merged, held)
		}
		assign(held, merged)
	}
	return false
}

// checkConcurrent evaluates an expression that runs on another goroutine
// (go statements, deferred closures): no lock is considered held.
func (ev *evaluator) checkConcurrent(e ast.Expr) {
	ev.checkExpr(e, make(map[string]lockState))
}

// checkExpr inspects an AST subtree for guarded-field accesses, reading
// them against the current held state. Nested function literals are
// evaluated as concurrent contexts (they may run later, without the
// lock), except immediately-invoked ones, which inherit the state.
func (ev *evaluator) checkExpr(n ast.Node, held map[string]lockState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			ev.block(x.Body.List, make(map[string]lockState))
			return false
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if sel, ok := analysis.Unparen(x.X).(*ast.SelectorExpr); ok {
					// Taking a field's address is as good as writing it.
					ev.checkAccess(sel, held, true)
					return false
				}
			}
		case *ast.SelectorExpr:
			ev.checkAccess(x, held, false)
			return false
		}
		return true
	})
}

// checkWrite checks the target of an assignment.
func (ev *evaluator) checkWrite(lhs ast.Expr, held map[string]lockState) {
	switch x := analysis.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		ev.checkAccess(x, held, true)
	case *ast.IndexExpr:
		// s.ring[i] = v writes through the guarded slice.
		if sel, ok := analysis.Unparen(x.X).(*ast.SelectorExpr); ok {
			ev.checkAccess(sel, held, true)
		} else {
			ev.checkExpr(x.X, held)
		}
		ev.checkExpr(x.Index, held)
	case *ast.StarExpr:
		ev.checkExpr(x.X, held)
	case *ast.Ident:
	default:
		ev.checkExpr(lhs, held)
	}
}

// checkAccess resolves one selector and reports it if it reads or writes
// a guarded field without the right lock. It recurses into the base so
// chained accesses (s.a.b) are each checked.
func (ev *evaluator) checkAccess(sel *ast.SelectorExpr, held map[string]lockState, write bool) {
	defer ev.checkExpr(sel.X, held)
	obj := ev.pass.Info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	g, guarded := ev.guards[obj]
	if !guarded || ev.mute > 0 {
		return
	}
	if ev.holds[g.mu] {
		return
	}
	if analysis.FreshBase(sel.X, ev.pass.Info, ev.fresh) {
		return
	}
	base := analysis.BaseExprString(sel.X)
	muExpr := g.mu
	if base != "" {
		muExpr = base + "." + g.mu
	}
	st := held[muExpr]
	if write {
		if !st.excl {
			ev.pass.Reportf(sel.Sel.Pos(),
				"write to %s (guarded by %s) in %s without holding %s; lock it, annotate the helper //hhc:holds %s, or justify with //lint:ignore lockguard",
				obj.Name(), g.mu, ev.fn, muExpr, g.mu)
		}
		return
	}
	if !st.excl && !st.shared {
		ev.pass.Reportf(sel.Sel.Pos(),
			"read of %s (guarded by %s) in %s without holding %s; lock it, annotate the helper //hhc:holds %s, or justify with //lint:ignore lockguard",
			obj.Name(), g.mu, ev.fn, muExpr, g.mu)
	}
}

// apply records one lock-state transition on the named mutex expression.
func (ev *evaluator) apply(held map[string]lockState, mu, op string) {
	st := held[mu]
	switch op {
	case "Lock":
		st.excl, st.shared = true, true
	case "RLock":
		st.shared = true
	case "Unlock":
		st.excl, st.shared = false, false
	case "RUnlock":
		st.shared = st.excl // an RUnlock under a write lock changes nothing
		if !st.excl {
			st.shared = false
		}
	}
	held[mu] = st
}

// lockCallOf matches expressions of the form <path>.Lock() / RLock /
// Unlock / RUnlock where the method belongs to the sync package, and
// returns the canonical mutex expression string plus the operation.
func lockCallOf(pass *analysis.Pass, e ast.Expr) (mu, op string) {
	call, ok := analysis.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	mu = analysis.BaseExprString(sel.X)
	if mu == "" {
		return "", ""
	}
	return mu, sel.Sel.Name
}

func copyState(held map[string]lockState) map[string]lockState {
	out := make(map[string]lockState, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func mergeStates(a, b map[string]lockState) map[string]lockState {
	out := make(map[string]lockState)
	for k, v := range a {
		out[k] = merge(v, b[k])
	}
	return out
}

func assign(dst, src map[string]lockState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}
