// Package hotpath enforces the zero-allocation discipline on code
// reachable from the simulator's inner loop.
//
// The event core's perf contract (pinned by AllocsPerRun tests and the CI
// bench-smoke gate) is that steady-state simulation does not allocate:
// events and packets recycle through freelists, and the enqueue→dequeue
// datapath runs on preallocated rings. That contract is easy to break from
// a distance — a helper three calls away from sim.Engine.Run quietly gains
// a fmt.Sprintf or an appending slice, and the alloc gate only catches it
// after the fact, in whichever benchmark happens to cross the new code.
//
// hotpath moves the check to the source. It consumes the callgraph
// analyzer's module-wide facts and computes everything reachable from the
// hot roots — sim.Engine.Run/RunUntil (including every scheduled callback,
// via the call graph's conservative dynamic-call resolution), the timing
// wheel's store (wheel.place/cascade/drainSpill and the sorted bucket
// insert slotList.insertSorted, which relink events and whole slots
// mid-fire and must stay pointer stores), and fabric.Port.Send/transmitNext, the one egress
// pipeline (qdisc.Qdisc is a fabric.Port with a shaper) — then
// flags the well-known allocation sources inside reachable functions:
// closures capturing variables, concrete values boxed into interface
// parameters, append through non-local slices, map iteration, and any fmt
// call. Test files are exempt (they assert on the hot path but do not run
// in it), as is package main (CLI progress output is deliberately
// wall-clock-paced and allocating).
//
// Three contexts are cold by construction and skipped without a waiver:
// the arguments of panic(...) (a terminal path — the formatting runs once,
// right before the process dies), calls into internal/invariant (release
// builds compile the whole call away because invariant.Enabled is a
// constant false without the invariants tag), and the bodies of
// `if invariant.Enabled { ... }` guards (dead-code-eliminated the same
// way). A function declared with `//tcnlint:cold <reason>` on the line
// above it runs only on an explicit, rare request (a consumer asking for
// a snapshot); the walk stops at it, so neither its body nor what only it
// reaches is checked. Anything else the conservative graph reaches that is
// genuinely cold — one-time warm-up, rare resize — is waived line by line
// with `//tcnlint:hotpath` and a justification.
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"tcn/internal/lint/analysis"
	"tcn/internal/lint/callgraph"
)

// Analyzer is the hotpath check.
var Analyzer = &analysis.Analyzer{
	Name:     "hotpath",
	Doc:      "forbid allocation sources (closures, interface boxing, escaping append, map ranges, fmt) in functions reachable from the simulator hot path",
	Requires: []*analysis.Analyzer{callgraph.Analyzer},
	Run:      run,
}

// hotRoots names the entry points of the allocation-free region, keyed by
// package (real module path or bare fixture twin), receiver type, and
// method name.
func isRoot(n *callgraph.Node) bool {
	if n.Obj == nil || n.Sig == nil || n.Sig.Recv() == nil {
		return false
	}
	pkg := n.Obj.Pkg()
	if pkg == nil {
		return false
	}
	recv := recvName(n.Sig.Recv().Type())
	if pkg.Name() == "sim" && (recv == "wheel" || recv == "slotList") {
		// The timing wheel's store: placement, the sorted bucket insert,
		// and the cascade and spill drain that redistribute whole slots
		// while the event loop is mid-fire carry the same zero-allocation
		// contract as the loop itself. They are rooted directly — not just
		// reached through Engine.Run — so the check cannot silently lapse
		// if the graph loses the edge through the engine's nilable wheel
		// field. Matched by package name, not path, so the fixture twin
		// (testdata path "wheelsim", package sim) exercises the same rule.
		switch n.Obj.Name() {
		case "place", "insertSorted", "cascade", "drainSpill":
			return true
		}
		return false
	}
	switch pkg.Path() {
	case "tcn/internal/sim", "sim":
		return recv == "Engine" && (n.Obj.Name() == "Run" || n.Obj.Name() == "RunUntil")
	case "tcn/internal/fabric", "fabric":
		return recv == "Port" && (n.Obj.Name() == "Send" || n.Obj.Name() == "transmitNext")
	}
	return false
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	g := callgraph.ModuleGraph(pass)
	reach := g.Reachable(g.Roots(isRoot), func(n *callgraph.Node) bool {
		return isColdFunc(pass, n)
	})

	for n := range reach {
		if n.Pkg != pass.Pkg || n.Body == nil {
			continue
		}
		pos := pass.Fset.Position(n.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		checkNode(pass, n)
	}
	return nil, nil
}

// checkNode flags allocation sources in one reachable function body. Nested
// literals are pruned: each is its own graph node and is checked separately
// if reachable, while the act of creating a capturing closure is charged to
// the enclosing function here.
func checkNode(pass *analysis.Pass, n *callgraph.Node) {
	report := func(pos ast.Node, format string, args ...any) {
		if analysis.LineCommentDirective(pass.Fset, n.File, pos.Pos(), "hotpath") {
			return
		}
		pass.Reportf(pos.Pos(), format, args...)
	}

	var walk func(x ast.Node) bool
	walk = func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			if name := capturedVar(pass, v); name != "" {
				report(v, "closure captures %q inside the hot path (reachable from the event loop); closures allocate — hoist the state or use AtArg", name)
			}
			return false // the literal's body is its own node
		case *ast.IfStmt:
			if isInvariantGuard(pass, v.Cond) {
				return false // compiled away without the invariants tag
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[v.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(v, "map iteration on the hot path: order is randomized and the loop defeats the allocation-free contract; use a dense slice")
				}
			}
		case *ast.CallExpr:
			if coldCall(pass, v) {
				return false // panic(...) args / invariant.Checkf never run steady-state
			}
			checkCall(pass, report, v)
		}
		return true
	}
	ast.Inspect(n.Body, walk)
}

// isColdFunc reports a declared function marked `//tcnlint:cold <reason>`
// on the line above its declaration (the last line of its doc comment).
// Such a function runs only on an explicit, rare request, so the walk
// stops there: neither its body nor anything it alone reaches is hot.
func isColdFunc(pass *analysis.Pass, n *callgraph.Node) bool {
	return n.Obj != nil && n.File != nil && analysis.LineCommentDirective(pass.Fset, n.File, n.Pos, "cold")
}

// coldCall reports calls whose arguments never execute in steady state: the
// builtin panic (terminal) and anything in internal/invariant (gated behind
// the invariants build tag; a constant-false Enabled eliminates the call).
func coldCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "panic" {
			return true
		}
	}
	if obj := staticCallee(pass.TypesInfo, call); obj != nil && obj.Pkg() != nil {
		p := obj.Pkg().Path()
		if p == "tcn/internal/invariant" || p == "invariant" {
			return true
		}
	}
	return false
}

// isInvariantGuard matches conditions that reference the invariant.Enabled
// build-tag constant, directly or as one operand of && / !.
func isInvariantGuard(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != "Enabled" {
			return true
		}
		c, ok := pass.TypesInfo.Uses[id].(*types.Const)
		if !ok || c.Pkg() == nil {
			return true
		}
		if p := c.Pkg().Path(); p == "tcn/internal/invariant" || p == "invariant" {
			found = true
		}
		return !found
	})
	return found
}

// capturedVar returns the name of a variable the literal captures from an
// enclosing function, or "". Package-level variables are not captures (no
// closure cell is allocated for them).
func capturedVar(pass *analysis.Pass, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != pass.Pkg {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() {
			return true // package-level, not captured
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own local or parameter
		}
		found = v.Name()
		return false
	})
	return found
}

// checkCall flags fmt calls, interface boxing at call boundaries, and
// appends through non-local slices.
func checkCall(pass *analysis.Pass, report func(ast.Node, string, ...any), call *ast.CallExpr) {
	info := pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}

	// Builtin append through a target the function does not own locally.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" && len(call.Args) > 0 {
				if root := rootIdent(call.Args[0]); root != nil {
					if v, ok := info.Uses[root].(*types.Var); ok && escapingSliceTarget(pass, call.Args[0], v) {
						report(call, "append through %q may grow on the hot path; preallocate the ring and index it instead", v.Name())
					}
				}
			}
			return
		}
	}

	// fmt on the hot path always allocates (boxing + formatting buffers).
	obj := staticCallee(info, call)
	if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		report(call, "fmt.%s on the hot path allocates; format off the hot path or record raw fields", obj.Name())
		return
	}

	// Interface boxing: a concrete non-pointer-shaped value passed where
	// the callee takes an interface is wrapped in a freshly allocated
	// interface payload.
	sig := calleeSignature(info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Value != nil || at.IsNil() {
			continue // constants fold; nil is the zero interface
		}
		if types.IsInterface(at.Type) || pointerShaped(at.Type) {
			continue
		}
		report(arg, "argument boxes a %s into an interface on the hot path; each call allocates — take the concrete type or pass a pointer", at.Type.String())
	}
}

// staticCallee resolves the called *types.Func, or nil for dynamic calls.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// calleeSignature returns the callee's signature for static and dynamic
// calls alike.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	if tv, ok := info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// paramType resolves the effective parameter type for argument i,
// flattening the variadic tail.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if s, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// pointerShaped reports whether values of t fit an interface word without
// a heap copy.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// rootIdent walks to the base identifier of a selector/index/star chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// escapingSliceTarget reports whether the append target lives beyond the
// function's own frame: a field, a dereference, or any variable declared
// outside the enclosing literal/declaration. A plain local slice is the
// caller's own scratch space and stays with the frame.
func escapingSliceTarget(pass *analysis.Pass, target ast.Expr, root *types.Var) bool {
	if _, isIdent := target.(*ast.Ident); !isIdent {
		return true // s.buf, *p, ring[i]: storage outside the frame
	}
	if root.Parent() == pass.Pkg.Scope() {
		return true // package-level slice
	}
	return false
}
