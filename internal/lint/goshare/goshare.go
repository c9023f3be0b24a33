// Package goshare forbids sharing single-owner simulator state across
// goroutines.
//
// The zero-alloc event core leans on single-goroutine ownership: each
// sim.Engine recycles event nodes through a freelist, each transport stack
// recycles packets through a pkt.Pool, and each sweep point draws from its
// own seeded rand. None of these carry locks — the parallel sweep executor
// is only correct because every point owns its engine, pool, and rand
// outright (see internal/parallel). Handing any of them to a goroutine
// therefore silently breaks both memory safety and determinism.
//
// Since PR 7 the analyzer is interprocedural. Four rules fire:
//
//  1. a `go` statement that references a single-owner value declared
//     outside the spawned function (captured, passed, or as receiver);
//  2. the same for a value whose struct type transitively CONTAINS a
//     single-owner value — handing a fabric.Port to a goroutine hands its
//     engine over just as surely;
//  3. a channel send of a single-owner (or containing) value — the value
//     is gone to whichever goroutine receives;
//  4. a call that passes a single-owner value into a function that leaks
//     the corresponding parameter to another goroutine, however
//     indirectly. Leak knowledge travels as a Leaks fact computed per
//     function: a parameter (or receiver) leaks if — possibly after being
//     stowed in a local struct — it reaches a `go` statement, a channel
//     send, a package-level variable, or a leaking parameter of another
//     call. Facts cross package boundaries, so a helper in another package
//     that spawns a goroutine over its argument is caught at the caller,
//     which the old syntactic check provably missed.
//
// Values constructed inside the spawned function are goroutine-local and
// legal, as is a constructor that merely stores a parameter into its
// result (storing is not leaking; spawning is). A deliberate hand-off
// (e.g. a test that proves the race detector fires) can be waived line by
// line with a `//tcnlint:goshare` comment.
package goshare

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tcn/internal/lint/analysis"
)

// Analyzer is the goshare check.
var Analyzer = &analysis.Analyzer{
	Name: "goshare",
	Doc:  "forbid sharing a sim.Engine, pkt.Pool, or rand source with a goroutine — directly, inside a struct, over a channel, or through a leaking callee",
	Run:  run,
}

// Leaks records which inputs of a function escape to another goroutine:
// parameter indices and/or the receiver. Exported as an object fact so
// callers in dependent packages are diagnosed at the call site.
type Leaks struct {
	Params []int
	Recv   bool
}

// AFact marks Leaks as a fact.
func (*Leaks) AFact() {}

func (l *Leaks) String() string {
	var parts []string
	if l.Recv {
		parts = append(parts, "recv")
	}
	if len(l.Params) > 0 {
		var ps []string
		for _, i := range l.Params {
			ps = append(ps, fmt.Sprint(i))
		}
		parts = append(parts, "params="+strings.Join(ps, ","))
	}
	return "leaks(" + strings.Join(parts, ",") + ")"
}

// sharedKind names the single-owner type an expression resolves to, or ""
// if the type is freely shareable. Matching covers both the real module
// paths and the bare fixture package names so the rule itself is testable.
func sharedKind(t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "tcn/internal/sim", "sim":
		switch obj.Name() {
		case "Engine":
			return "sim.Engine (event freelist)"
		case "Rand":
			return "sim.Rand"
		}
	case "tcn/internal/pkt", "pkt":
		if obj.Name() == "Pool" {
			return "pkt.Pool (packet freelist)"
		}
	case "math/rand":
		if obj.Name() == "Rand" {
			return "rand.Rand"
		}
	case "math/rand/v2":
		switch obj.Name() {
		case "Rand", "PCG", "ChaCha8":
			return "rand/v2 " + obj.Name()
		}
	}
	return ""
}

// containerKind reports the single-owner kind a struct type transitively
// holds in its fields, or "". A *fabric.Port is as unshareable as the
// *sim.Engine inside it.
func containerKind(t types.Type) string {
	return containerKindRec(t, 0, map[types.Type]bool{})
}

func containerKindRec(t types.Type, depth int, seen map[types.Type]bool) string {
	if depth > 3 || seen[t] {
		return ""
	}
	seen[t] = true
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if k := sharedKind(ft); k != "" {
			return k
		}
		if k := containerKindRec(ft, depth+1, seen); k != "" {
			return k
		}
	}
	return ""
}

// ownerKind classifies a type as directly single-owner, a container of
// one, or neither; the second result distinguishes the container case for
// the diagnostic text.
func ownerKind(t types.Type) (kind string, viaContainer bool) {
	if k := sharedKind(t); k != "" {
		return k, false
	}
	if k := containerKind(t); k != "" {
		return k, true
	}
	return "", false
}

// funcInfo is one function declaration under leak analysis.
type funcInfo struct {
	decl *ast.FuncDecl
	obj  *types.Func
	file *ast.File
}

// checker carries per-package leak state; leaks[fn][i] with i == -1
// meaning the receiver.
type checker struct {
	pass  *analysis.Pass
	funcs []*funcInfo
	leaks map[*types.Func]map[int]bool
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass, leaks: map[*types.Func]map[int]bool{}}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.funcs = append(c.funcs, &funcInfo{decl: fd, obj: obj, file: f})
			}
		}
	}

	// Same-package fixed point so leak knowledge flows through local
	// helper chains before facts are exported.
	for round := 0; round < 8; round++ {
		changed := false
		for _, fi := range c.funcs {
			if c.updateLeaks(fi) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fi := range c.funcs {
		idx := c.leaks[fi.obj]
		if len(idx) == 0 {
			continue
		}
		fact := &Leaks{Recv: idx[-1]}
		//tcnlint:ordered params are sorted below
		for i := range idx {
			if i >= 0 {
				fact.Params = append(fact.Params, i)
			}
		}
		sort.Ints(fact.Params)
		pass.ExportObjectFact(fi.obj, fact)
	}

	// Diagnostics.
	for _, f := range pass.Files {
		file := f
		goCalls := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				goCalls[x.Call] = true
				checkGo(pass, file, x)
			case *ast.SendStmt:
				checkSend(pass, file, x)
			case *ast.CallExpr:
				if !goCalls[x] {
					c.checkCallSite(file, x)
				}
			}
			return true
		})
	}
	return nil, nil
}

// leakInput marks input i (receiver -1) of fn as leaking, reporting
// whether that was new.
func (c *checker) leakInput(fn *types.Func, i int) bool {
	if c.leaks[fn] == nil {
		c.leaks[fn] = map[int]bool{}
	}
	if c.leaks[fn][i] {
		return false
	}
	c.leaks[fn][i] = true
	return true
}

// calleeLeakSet returns the leaking input set of a callee, merging the
// in-flight same-package state with imported facts.
func (c *checker) calleeLeakSet(obj *types.Func) map[int]bool {
	out := map[int]bool{}
	for i := range c.leaks[obj] {
		out[i] = true
	}
	var fact Leaks
	if c.pass.ImportObjectFact(obj, &fact) {
		if fact.Recv {
			out[-1] = true
		}
		for _, i := range fact.Params {
			out[i] = true
		}
	}
	return out
}

// updateLeaks recomputes the leak set of one function's inputs.
func (c *checker) updateLeaks(fi *funcInfo) bool {
	sig := fi.obj.Type().(*types.Signature)
	var inputs []struct {
		idx int
		v   *types.Var
	}
	if r := sig.Recv(); r != nil {
		inputs = append(inputs, struct {
			idx int
			v   *types.Var
		}{-1, r})
	}
	for i := 0; i < sig.Params().Len(); i++ {
		inputs = append(inputs, struct {
			idx int
			v   *types.Var
		}{i, sig.Params().At(i)})
	}

	changed := false
	for _, in := range inputs {
		if c.leaks[fi.obj][in.idx] {
			continue
		}
		// Only single-owner-relevant inputs are worth tracking.
		if k, _ := ownerKind(in.v.Type()); k == "" {
			continue
		}
		if c.inputLeaks(fi, in.v) && c.leakInput(fi.obj, in.idx) {
			changed = true
		}
	}
	return changed
}

// inputLeaks runs a taint probe with the given input as the only source
// and reports whether it reaches a goroutine hand-off.
func (c *checker) inputLeaks(fi *funcInfo, input *types.Var) bool {
	info := c.pass.TypesInfo
	t := &analysis.Taint{Info: info, IsSource: func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && info.Uses[id] == input
	}}
	t.Analyze(fi.decl.Body)

	leaked := false
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if leaked {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			ast.Inspect(x.Call, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && t.Expr(id) {
					leaked = true
				}
				return !leaked
			})
			return false
		case *ast.SendStmt:
			if t.Expr(x.Value) {
				leaked = true
			}
		case *ast.AssignStmt:
			// A store into a package-level variable escapes the frame.
			for i, lhs := range x.Lhs {
				root := rootIdent(lhs)
				if root == nil {
					continue
				}
				v, ok := info.Uses[root].(*types.Var)
				if !ok || v.Parent() != c.pass.Pkg.Scope() {
					continue
				}
				var rhs ast.Expr
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				} else if len(x.Rhs) == 1 {
					rhs = x.Rhs[0]
				}
				if rhs != nil && t.Expr(rhs) {
					leaked = true
				}
			}
		case *ast.CallExpr:
			obj := staticCallee(info, x)
			if obj == nil || obj == fi.obj {
				return true
			}
			set := c.calleeLeakSet(obj)
			if len(set) == 0 {
				return true
			}
			for i, a := range x.Args {
				if set[i] && t.Expr(a) {
					leaked = true
				}
			}
			if set[-1] {
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && t.Expr(sel.X) {
					leaked = true
				}
			}
		}
		return !leaked
	})
	return leaked
}

// staticCallee resolves the called *types.Func, or nil.
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

// checkGo reports every distinct single-owner (or containing) variable the
// go statement hands to the spawned goroutine.
func checkGo(pass *analysis.Pass, file *ast.File, g *ast.GoStmt) {
	// If the goroutine body is a literal, anything declared inside it
	// (locals and parameters) belongs to the new goroutine.
	var litPos, litEnd token.Pos
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		litPos, litEnd = lit.Pos(), lit.End()
	}
	reported := map[*types.Var]bool{}
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || reported[v] {
			return true
		}
		kind, viaContainer := ownerKind(v.Type())
		if kind == "" {
			return true
		}
		if litPos.IsValid() && v.Pos() >= litPos && v.Pos() <= litEnd {
			return true // declared by the spawned function itself
		}
		if analysis.LineCommentDirective(pass.Fset, file, id.Pos(), "goshare") {
			return true
		}
		reported[v] = true
		if viaContainer {
			pass.Reportf(id.Pos(), "%q contains a %s and is shared with a goroutine: engines, packet pools, and rand sources are single-owner; construct one inside the goroutine instead",
				v.Name(), kind)
		} else {
			pass.Reportf(id.Pos(), "%q (%s) is shared with a goroutine: engines, packet pools, and rand sources are single-owner; construct one inside the goroutine instead",
				v.Name(), kind)
		}
		return true
	})
}

// checkSend flags channel sends of single-owner values: whoever receives
// becomes a second owner.
func checkSend(pass *analysis.Pass, file *ast.File, s *ast.SendStmt) {
	tv, ok := pass.TypesInfo.Types[s.Value]
	if !ok {
		return
	}
	kind, viaContainer := ownerKind(tv.Type)
	if kind == "" {
		return
	}
	if analysis.LineCommentDirective(pass.Fset, file, s.Pos(), "goshare") {
		return
	}
	what := "a " + kind
	if viaContainer {
		what = "a value containing a " + kind
	}
	pass.Reportf(s.Pos(), "channel send hands %s to another goroutine; single-owner values must stay with the goroutine that built them", what)
}

// checkCallSite flags passing a single-owner value into a callee input
// that a Leaks fact (or same-package analysis) says escapes to another
// goroutine.
func (c *checker) checkCallSite(file *ast.File, call *ast.CallExpr) {
	info := c.pass.TypesInfo
	obj := staticCallee(info, call)
	if obj == nil {
		return
	}
	set := c.calleeLeakSet(obj)
	if len(set) == 0 {
		return
	}
	report := func(at ast.Expr, name, kind string, viaContainer bool) {
		if analysis.LineCommentDirective(c.pass.Fset, file, at.Pos(), "goshare") {
			return
		}
		contains := ""
		if viaContainer {
			contains = "a value containing "
		}
		c.pass.Reportf(at.Pos(), "%s hands %sa %s to another goroutine (ownership leak via %s); single-owner values must not escape their goroutine",
			name, contains, kind, obj.Name())
	}
	for i, a := range call.Args {
		if !set[i] {
			continue
		}
		tv, ok := info.Types[a]
		if !ok {
			continue
		}
		if kind, viaContainer := ownerKind(tv.Type); kind != "" {
			report(a, "argument", kind, viaContainer)
		}
	}
	if set[-1] {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if tv, ok := info.Types[sel.X]; ok {
				if kind, viaContainer := ownerKind(tv.Type); kind != "" {
					report(sel.X, "receiver", kind, viaContainer)
				}
			}
		}
	}
}
