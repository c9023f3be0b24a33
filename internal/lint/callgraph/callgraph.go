// Package callgraph builds a conservative static call graph of the whole
// module, as an analyzer other analyzers Require rather than a check of its
// own (it reports no diagnostics).
//
// Each package pass records one node per function declaration and function
// literal, with edges classified three ways:
//
//   - static: the callee is a named function or a method on a concrete
//     receiver, recorded as its types.Func (cross-package edges resolve
//     during assembly because the loader gives the whole run one types
//     world);
//   - interface: the callee is an interface method; assembly resolves it
//     CHA-style to every concrete method of that name on any module type
//     implementing the interface;
//   - dynamic: the callee is a function value (a field, parameter, or
//     variable); assembly resolves it to every module function or closure
//     whose signature is identical and whose value escapes into callback
//     plumbing.
//
// "Escapes into callback plumbing" is the one refinement over a naive
// address-taken check, and it is what keeps the graph usable: every
// reference to a function value is classified by context. Values stored
// into struct fields, map/slice elements, or package-level variables,
// returned from a function, or passed as an argument to another module
// function (which may stow them — sim.Engine.At does exactly that) are
// global dynamic-call candidates. Values passed to a non-module function
// (a sort.Slice comparator) or bound to a plain local variable instead get
// a direct edge from the referencing function — they can only run where
// they were created, so a scheduler loop's `fn()` should not claim them.
// The known gap is a two-step flow through a local (f := step; t.cb = f):
// the store of f is untracked because f is a variable, not a function.
//
// Interface and dynamic resolution remain over-approximate —
// conservative in the direction that matters for the hotpath and goshare
// consumers, which must never silently miss a reachable function. The
// per-package graphs are published as package facts; ModuleGraph stitches
// every fact visible to a pass into one queryable graph. Because the driver
// runs callgraph over all packages before any dependent analyzer starts,
// the stitched graph covers the full module, including packages that import
// the one under analysis (an event callback defined in transport is
// reachable from sim.Engine.Run even though sim never imports transport).
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"tcn/internal/lint/analysis"
)

// Analyzer builds the per-package call-graph fragment.
var Analyzer = &analysis.Analyzer{
	Name: "callgraph",
	Doc:  "build the module call graph (static + method sets, conservative on interfaces and function values); a library for other analyzers, reports nothing itself",
	Run:  run,
}

// Node is one function — declaration or literal — in the graph.
type Node struct {
	// Obj is the declared function or method; nil for a literal.
	Obj *types.Func
	// Lit is the function literal; nil for a declaration.
	Lit *ast.FuncLit
	// Pos is the declaration or literal position.
	Pos token.Pos
	// Sig is the function signature.
	Sig *types.Signature
	// AddrTaken reports that the function's value escapes into callback
	// plumbing — a field or package-level store, a return value, or an
	// argument to a module function — making it a candidate target for
	// dynamic calls of its signature anywhere in the module.
	AddrTaken bool
	// Pkg is the defining package.
	Pkg *types.Package
	// File is the syntax file holding the node, for directive lookups.
	File *ast.File
	// Body is the function body; nil for bodyless declarations.
	Body *ast.BlockStmt

	staticObjs []*types.Func
	staticLits []*Node
	ifaceCalls []*types.Func
	dynSigs    []*types.Signature
	// refEdges are direct edges to function values referenced in contexts
	// that cannot feed global dynamic dispatch (locals, stdlib-call args);
	// populated during assembly.
	refEdges []*Node
}

// RefKind classifies the context a function value is referenced in.
type RefKind int

const (
	// RefPlain binds the value to a plain local variable or another
	// frame-local context.
	RefPlain RefKind = iota
	// RefArg passes the value as an argument to a call.
	RefArg
	// RefStore writes the value into storage that outlives the frame: a
	// struct field, a map or slice element, or a package-level variable.
	RefStore
	// RefReturn returns the value to the caller.
	RefReturn
)

// Ref is one non-call reference to a function value.
type Ref struct {
	// Obj is the referenced declared function; nil when a literal.
	Obj *types.Func
	// Lit is the referenced literal's node; nil when a declared function.
	Lit *Node
	// From is the enclosing function node, nil at package scope.
	From *Node
	// Kind is the reference context.
	Kind RefKind
	// Callee is, for RefArg, the static callee the value is passed to;
	// nil for a dynamic or builtin callee.
	Callee *types.Func
}

// Name renders a stable human-readable label ("(*Engine).Run", "func@12").
func (n *Node) Name() string {
	if n.Obj != nil {
		if recv := n.Sig.Recv(); recv != nil {
			return "(" + recv.Type().String() + ")." + n.Obj.Name()
		}
		return n.Obj.Name()
	}
	return "func literal"
}

// PkgGraph is the package fact carrying one package's fragment.
type PkgGraph struct {
	Pkg   *types.Package
	Nodes []*Node
	// Named lists the package's named non-interface types, for CHA
	// interface resolution.
	Named []*types.TypeName
	// Refs lists every non-call reference this package makes to a
	// function value (possibly one declared in another package), with the
	// context it was referenced in.
	Refs []*Ref
}

// AFact marks PkgGraph as a fact.
func (*PkgGraph) AFact() {}

func (g *PkgGraph) String() string { return "callgraph" }

func run(pass *analysis.Pass) (any, error) {
	g := &PkgGraph{Pkg: pass.Pkg}

	// Named types, for CHA.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if _, isIface := tn.Type().Underlying().(*types.Interface); !isIface {
				g.Named = append(g.Named, tn)
			}
		}
	}

	for _, f := range pass.Files {
		b := &builder{pass: pass, g: g, file: f}
		b.file1(f)
	}
	pass.ExportPackageFact(g)
	return g, nil
}

// builder walks one file attributing calls to the innermost enclosing
// function node.
type builder struct {
	pass    *analysis.Pass
	g       *PkgGraph
	file    *ast.File
	lits    map[*ast.FuncLit]*Node
	stack   []*Node
	handled map[*ast.Ident]bool
}

func (b *builder) file1(f *ast.File) {
	// Pre-create literal nodes so call classification can reference them
	// regardless of traversal order.
	b.lits = map[*ast.FuncLit]*Node{}
	b.handled = map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			sig, _ := b.pass.TypesInfo.Types[lit].Type.(*types.Signature)
			node := &Node{Lit: lit, Pos: lit.Pos(), Sig: sig, Pkg: b.pass.Pkg, File: f, Body: lit.Body}
			b.lits[lit] = node
			b.g.Nodes = append(b.g.Nodes, node)
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			obj, _ := b.pass.TypesInfo.Defs[x.Name].(*types.Func)
			if obj == nil {
				return false
			}
			node := &Node{Obj: obj, Pos: x.Pos(), Sig: obj.Type().(*types.Signature), Pkg: b.pass.Pkg, File: b.file, Body: x.Body}
			b.g.Nodes = append(b.g.Nodes, node)
			b.stack = append(b.stack, node)
			if x.Body != nil {
				ast.Inspect(x.Body, walk)
			}
			b.stack = b.stack[:len(b.stack)-1]
			return false
		case *ast.FuncLit:
			node := b.lits[x]
			b.stack = append(b.stack, node)
			ast.Inspect(x.Body, walk)
			b.stack = b.stack[:len(b.stack)-1]
			return false
		case *ast.CallExpr:
			b.call(x)
			// A function value passed as an argument is classified by the
			// callee: a module function may stow it for later dispatch, a
			// non-module one can only invoke it in place.
			callee := b.staticCalleeObj(x)
			for _, a := range x.Args {
				b.refIfFunc(a, RefArg, callee)
				ast.Inspect(a, walk)
			}
			// Control descent so the callee ident is not misread as an
			// address-taken reference: of the callee walk only its
			// receiver/operand subexpressions.
			switch fn := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				// consumed by call()
			case *ast.SelectorExpr:
				ast.Inspect(fn.X, walk)
			default:
				ast.Inspect(fn, walk)
			}
			return false
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					b.refIfFunc(rhs, b.lhsKind(x.Lhs[i]), nil)
				}
			}
		case *ast.ValueSpec:
			kind := RefPlain
			if b.current() == nil {
				kind = RefStore // package-level var initializer
			}
			for _, v := range x.Values {
				b.refIfFunc(v, kind, nil)
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				b.refIfFunc(elt, RefStore, nil)
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				b.refIfFunc(r, RefReturn, nil)
			}
		case *ast.Ident:
			b.ident(x)
		}
		return true
	}
	ast.Inspect(f, walk)
}

// staticCalleeObj resolves the statically-known callee of a call, nil for
// dynamic calls, builtins, and conversions.
func (b *builder) staticCalleeObj(call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := b.pass.TypesInfo.Uses[fn].(*types.Func); ok {
			return origin(f)
		}
	case *ast.SelectorExpr:
		if f, ok := b.pass.TypesInfo.Uses[fn.Sel].(*types.Func); ok {
			return origin(f)
		}
	}
	return nil
}

// lhsKind classifies an assignment target: storage that outlives the frame
// (field, element, dereference, package-level variable) versus a plain
// local binding.
func (b *builder) lhsKind(lhs ast.Expr) RefKind {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return RefStore // x.f, m[k], *p
	}
	obj := b.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = b.pass.TypesInfo.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok && v.Parent() == b.pass.Pkg.Scope() {
		return RefStore // package-level variable
	}
	return RefPlain
}

// refIfFunc records a reference when e is a function literal, a named
// function, or a method value; other expressions are left to the generic
// walk.
func (b *builder) refIfFunc(e ast.Expr, kind RefKind, callee *types.Func) {
	ref := &Ref{From: b.current(), Kind: kind, Callee: callee}
	switch v := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		ref.Lit = b.lits[v]
	case *ast.Ident:
		f, ok := b.pass.TypesInfo.Uses[v].(*types.Func)
		if !ok {
			return
		}
		ref.Obj = origin(f)
		b.handled[v] = true
	case *ast.SelectorExpr:
		f, ok := b.pass.TypesInfo.Uses[v.Sel].(*types.Func)
		if !ok {
			return
		}
		ref.Obj = origin(f)
		b.handled[v.Sel] = true
	default:
		return
	}
	b.g.Refs = append(b.g.Refs, ref)
}

// current returns the innermost enclosing function node, or nil at package
// level (composite literal initializers etc.).
func (b *builder) current() *Node {
	if len(b.stack) == 0 {
		return nil
	}
	return b.stack[len(b.stack)-1]
}

// call classifies one call expression.
func (b *builder) call(call *ast.CallExpr) {
	cur := b.current()
	fun := ast.Unparen(call.Fun)

	if tv, ok := b.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}

	switch fn := fun.(type) {
	case *ast.FuncLit:
		if cur != nil {
			cur.staticLits = append(cur.staticLits, b.lits[fn])
		}
		return
	case *ast.Ident:
		switch obj := b.pass.TypesInfo.Uses[fn].(type) {
		case *types.Func:
			if cur != nil {
				cur.staticObjs = append(cur.staticObjs, origin(obj))
			}
			return
		case *types.Builtin, *types.TypeName, nil:
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := b.pass.TypesInfo.Selections[fn]; ok {
			if m, ok := sel.Obj().(*types.Func); ok {
				if cur != nil {
					if isInterface(sel.Recv()) {
						cur.ifaceCalls = append(cur.ifaceCalls, origin(m))
					} else {
						cur.staticObjs = append(cur.staticObjs, origin(m))
					}
				}
				return
			}
		} else if obj, ok := b.pass.TypesInfo.Uses[fn.Sel].(*types.Func); ok {
			// Package-qualified call: pkg.Fn().
			if cur != nil {
				cur.staticObjs = append(cur.staticObjs, origin(obj))
			}
			return
		}
	}

	// Anything else of function type is a dynamic call.
	if cur != nil {
		if tv, ok := b.pass.TypesInfo.Types[call.Fun]; ok {
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				cur.dynSigs = append(cur.dynSigs, sig)
			}
		}
	}
}

// ident records any function reference the context-specific cases did not
// claim as a plain (frame-local) reference. Method values arrive here too:
// the Sel ident of an uncalled selector comes through the default walk.
// Call-position idents never arrive: the CallExpr case consumes them and
// prunes descent.
func (b *builder) ident(id *ast.Ident) {
	if b.handled[id] {
		return
	}
	obj, ok := b.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return
	}
	b.g.Refs = append(b.g.Refs, &Ref{Obj: origin(obj), From: b.current(), Kind: RefPlain})
}

func origin(f *types.Func) *types.Func { return f.Origin() }

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// Graph is the stitched module graph.
type Graph struct {
	Nodes []*Node

	byObj     map[*types.Func]*Node
	named     []*types.TypeName
	addrTaken []*Node
}

// ModuleGraph assembles every PkgGraph fact visible to the pass (which,
// given the driver's analyzer-outer execution order, is the whole module)
// into one graph. The pass must Require callgraph.Analyzer.
func ModuleGraph(pass *analysis.Pass) *Graph {
	g := &Graph{byObj: map[*types.Func]*Node{}}
	var refs []*Ref
	for _, pf := range pass.AllPackageFacts() {
		pg, ok := pf.Fact.(*PkgGraph)
		if !ok {
			continue
		}
		for _, n := range pg.Nodes {
			g.Nodes = append(g.Nodes, n)
			n.refEdges = nil // nodes are shared across ModuleGraph calls
			if n.Obj != nil {
				g.byObj[n.Obj] = n
			}
		}
		g.named = append(g.named, pg.Named...)
		refs = append(refs, pg.Refs...)
	}
	// Classify every reference: escaping contexts make the target a global
	// dynamic-dispatch candidate; frame-local ones add a direct edge from
	// the referencing function. References at package scope (var
	// initializers) conservatively count as escaping.
	called := map[*Node]bool{}
	for _, n := range g.Nodes {
		for _, l := range n.staticLits {
			if l != nil {
				called[l] = true
			}
		}
	}
	eligible := map[*Node]bool{}
	referenced := map[*Node]bool{}
	for _, r := range refs {
		target := r.Lit
		if target == nil {
			target = g.byObj[r.Obj]
		}
		if target == nil {
			continue // references a function outside the module
		}
		referenced[target] = true
		escapes := false
		switch r.Kind {
		case RefStore, RefReturn:
			escapes = true
		case RefArg:
			// A module callee (or an unknown dynamic one) may stow the
			// value for later dispatch; a non-module callee can only
			// invoke it in place.
			escapes = r.Callee == nil || g.byObj[r.Callee] != nil
		}
		if escapes || r.From == nil {
			eligible[target] = true
		} else {
			r.From.refEdges = append(r.From.refEdges, target)
		}
	}
	for _, n := range g.Nodes {
		switch {
		case n.Lit != nil:
			// Safety net: a literal neither called in place nor seen in
			// any classified reference stays a global candidate.
			n.AddrTaken = eligible[n] || (!called[n] && !referenced[n])
		case n.Obj != nil:
			n.AddrTaken = eligible[n]
		}
	}
	return g
}

// NodeFor returns the node declaring obj, or nil for functions outside the
// analyzed set (stdlib).
func (g *Graph) NodeFor(obj *types.Func) *Node {
	if obj == nil {
		return nil
	}
	return g.byObj[obj.Origin()]
}

// Roots returns every node matching the predicate.
func (g *Graph) Roots(match func(*Node) bool) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if match(n) {
			out = append(out, n)
		}
	}
	return out
}

// Reachable computes the set of nodes reachable from roots through static,
// interface (CHA), and dynamic (signature-matched, escaping) edges, plus
// the direct edges recorded for frame-local function references. Nodes
// for which stop reports true (stop may be nil) are boundaries: they are
// neither included nor walked through.
func (g *Graph) Reachable(roots []*Node, stop func(*Node) bool) map[*Node]bool {
	seen := map[*Node]bool{}
	var queue []*Node
	push := func(n *Node) {
		if n != nil && !seen[n] && (stop == nil || !stop(n)) {
			seen[n] = true
			queue = append(queue, n)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, o := range n.staticObjs {
			push(g.byObj[o])
		}
		for _, l := range n.staticLits {
			push(l)
		}
		for _, m := range n.ifaceCalls {
			for _, impl := range g.implementers(m) {
				push(impl)
			}
		}
		for _, sig := range n.dynSigs {
			for _, cand := range g.dynTargets(sig) {
				push(cand)
			}
		}
		for _, t := range n.refEdges {
			push(t)
		}
	}
	return seen
}

// implementers resolves an interface method to every concrete module
// method that could satisfy it (CHA).
func (g *Graph) implementers(m *types.Func) []*Node {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	for _, tn := range g.named {
		t := tn.Type()
		pt := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(pt, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			if n := g.byObj[fn.Origin()]; n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

// dynTargets resolves a dynamic call of signature sig to every
// address-taken node whose (bound) signature is identical.
func (g *Graph) dynTargets(sig *types.Signature) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if !n.AddrTaken || n.Sig == nil {
			continue
		}
		if boundIdentical(n.Sig, sig) {
			out = append(out, n)
		}
	}
	return out
}

// boundIdentical compares a node's signature (receiver dropped — a method
// value is bound) against a call-site signature.
func boundIdentical(have, want *types.Signature) bool {
	if have.Variadic() != want.Variadic() {
		return false
	}
	return types.Identical(have.Params(), want.Params()) &&
		types.Identical(have.Results(), want.Results())
}
