package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file grows the per-file pass framework into an interprocedural
// one: a deterministic, module-local call graph built on the Loader's
// type-checked packages. The graph is deliberately conservative and
// cheap — it exists to answer one question well ("which functions can
// run downstream of a declared hot-path root?") and to inventory
// per-function effects (allocation sites, shared-state writes) for the
// hotalloc and ownership passes.
//
// Edge model:
//
//   - call: a direct call to a named function, or a method call whose
//     receiver type is concrete (resolved via go/types Selections).
//   - iface: a call through an interface method, conservatively linked
//     to every module-local method with the same name whose receiver
//     type implements the interface (e.g. Port.Access fans out to
//     Cache.Access, Device.Access, PortFunc.Access, ...).
//   - continuation: a function value handed to the sim event machinery
//     (sim.Thunk/Bind/KeyedThunk/KeyedBind, Engine.Schedule/At/
//     NewTicker/Inject, ...). These are the hot path's dispatch
//     mechanism: the engine will later invoke the value, so the binding
//     site is treated as a potential call site.
//   - ref: any other use of a function value (assigned to a variable or
//     field, passed as an ordinary argument, returned). Calls through
//     function-typed variables cannot be resolved, so the graph instead
//     assumes a referenced function may run wherever its value was
//     taken. This over-approximates (a stored callback "runs" at its
//     binding site) but never loses a target.
//
// Function literals do not get nodes of their own: a closure's body is
// attributed to the enclosing declared function, so reaching the
// function reaches everything its closures do.
//
// Hot-path roots are declared in source with the directive
//
//	//prosperlint:hotpath <reason>
//
// placed on the func line or the line directly above it (same placement
// grammar as ignore directives). Reachability is a breadth-first sweep
// from the roots in sorted-ID order, so the "via" attribution of every
// reachable node is deterministic.

// EdgeKind classifies one call-graph edge.
type EdgeKind uint8

const (
	EdgeCall EdgeKind = iota
	EdgeIface
	EdgeContinuation
	EdgeRef
)

var edgeKindNames = [...]string{"call", "iface", "continuation", "ref"}

// String returns the edge kind's stable name (part of the -graph-out
// format).
func (k EdgeKind) String() string { return edgeKindNames[k] }

// Edge is one outgoing edge of a call-graph node.
type Edge struct {
	Kind EdgeKind
	To   *FuncNode
	Pos  token.Pos // the call or reference site
}

// FuncNode is one declared function or method of a loaded package.
type FuncNode struct {
	ID   string // module-relative, e.g. "(*internal/cache.Cache).Access"
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	File string // absolute file name
	Line int    // line of the func keyword

	Edges  []Edge      // sorted by (To.ID, Kind, Pos)
	Allocs []AllocSite // static allocation sites in the body (summary.go)
	Writes []WriteSite // shared-state write sites in the body (summary.go)

	HotReason string    // non-empty iff this is a declared hot-path root
	Via       *FuncNode // nearest root that reaches this node (nil if cold)
}

// Hot reports whether the node is reachable from any hot-path root
// (roots reach themselves).
func (n *FuncNode) Hot() bool { return n.Via != nil }

// Program is the interprocedural view over one set of loaded packages:
// the call graph plus per-function summaries.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Nodes []*FuncNode // sorted by ID
	Roots []*FuncNode // hot-path roots, sorted by ID
	// VarRefs are the functions referenced from package-level var
	// initializers, sorted by ID.
	VarRefs []*FuncNode
	Module  string // module path, for telling the root package apart

	byObj map[*types.Func]*FuncNode
	// attachedHotpath records which hotpath directives found a function
	// declaration on their target line, keyed by file then target line.
	attachedHotpath map[string]map[int]bool
}

// nodeOf resolves a *types.Func (possibly a generic instance) to its
// node.
func (p *Program) nodeOf(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	if o := obj.Origin(); o != nil {
		obj = o
	}
	return p.byObj[obj]
}

// moduleQualifier renders package paths relative to the module root
// ("prosper/internal/cache" -> "internal/cache") so node IDs stay
// stable however the checkout is named, and readable in messages. The
// module root package itself renders by name.
func moduleQualifier(module string) types.Qualifier {
	return func(pkg *types.Package) string {
		path := pkg.Path()
		if rest, ok := strings.CutPrefix(path, module+"/"); ok {
			return rest
		}
		if path == module {
			return pkg.Name()
		}
		return path
	}
}

// funcID builds the stable node ID for a declared function:
// "pkg.Name" for package functions, "(pkg.Recv).Name" or
// "(*pkg.Recv).Name" for methods, with module-relative pkg paths.
func funcID(obj *types.Func, qual types.Qualifier) string {
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), qual), obj.Name())
	}
	if obj.Pkg() != nil {
		return qual(obj.Pkg()) + "." + obj.Name()
	}
	return obj.Name()
}

// BuildProgram constructs the call graph and per-function summaries for
// the loaded packages. The result is deterministic: nodes and edges are
// fully sorted, and identical sources produce byte-identical WriteGraph
// output.
func BuildProgram(l *Loader, pkgs []*Package) *Program {
	p := &Program{
		Fset:            l.Fset,
		Pkgs:            pkgs,
		Module:          l.Module,
		byObj:           make(map[*types.Func]*FuncNode),
		attachedHotpath: make(map[string]map[int]bool),
	}
	qual := moduleQualifier(l.Module)

	// Pass 1: one node per function declaration. Multiple init funcs in
	// a package share a FullName, so IDs get a "#n" disambiguator in
	// (file, line) order.
	idCount := make(map[string]int)
	for _, pkg := range pkgs {
		for i, f := range pkg.Files {
			name := pkg.Names[i]
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				id := funcID(obj, qual)
				idCount[id]++
				if c := idCount[id]; c > 1 {
					id = fmt.Sprintf("%s#%d", id, c)
				}
				pos := l.Fset.Position(fd.Pos())
				n := &FuncNode{
					ID: id, Obj: obj, Decl: fd, Pkg: pkg,
					File: name, Line: pos.Line,
				}
				p.byObj[obj] = n
				p.Nodes = append(p.Nodes, n)
			}
		}
	}
	sort.Slice(p.Nodes, func(i, j int) bool { return p.Nodes[i].ID < p.Nodes[j].ID })

	// Pass 2: hot-path roots from directives. A hotpath directive whose
	// target line carries no func keyword is recorded as unattached; the
	// Runner reports it under the directive pass.
	for _, pkg := range pkgs {
		for i, f := range pkg.Files {
			name := pkg.Names[i]
			for _, d := range ParseDirectives(l.Fset, f, pkg.Src[name]) {
				if d.Verb != "hotpath" || d.Err != "" {
					continue
				}
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || l.Fset.Position(fd.Pos()).Line != d.Target {
						continue
					}
					if n := p.nodeOf(pkg.Info.Defs[fd.Name].(*types.Func)); n != nil {
						n.HotReason = d.Reason
						if p.attachedHotpath[name] == nil {
							p.attachedHotpath[name] = make(map[int]bool)
						}
						p.attachedHotpath[name][d.Line] = true
					}
					break
				}
			}
		}
	}
	for _, n := range p.Nodes {
		if n.HotReason != "" {
			p.Roots = append(p.Roots, n)
		}
	}

	// Pass 3: edges and summaries.
	ifaceIndex := buildIfaceIndex(p)
	for _, n := range p.Nodes {
		if n.Decl.Body == nil {
			continue
		}
		collectEdges(p, n, ifaceIndex)
		collectSummary(p, n)
		sortEdges(n)
	}
	collectVarRefs(p, ifaceIndex)

	p.markReachable()
	return p
}

// HotpathAttached reports whether the hotpath directive at (file, line)
// found a function declaration on its target line.
func (p *Program) HotpathAttached(file string, line int) bool {
	return p.attachedHotpath[file][line]
}

// ifaceIndex maps a method name to every module-local concrete method
// with that name, used for conservative interface-call resolution.
type ifaceIndex map[string][]*FuncNode

func buildIfaceIndex(p *Program) ifaceIndex {
	idx := make(ifaceIndex)
	for _, n := range p.Nodes {
		if sig, _ := n.Obj.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); !isIface {
				idx[n.Obj.Name()] = append(idx[n.Obj.Name()], n)
			}
		}
	}
	return idx
}

// continuationFuncs are the internal/sim entry points whose function
// arguments become engine-dispatched continuations.
var continuationFuncs = map[string]bool{
	"Thunk": true, "Bind": true, "KeyedThunk": true, "KeyedBind": true,
	"Schedule": true, "At": true, "NewTicker": true, "Inject": true,
	"RunWhile": true, "AfterFunc": true,
}

// isSimContinuationCall reports whether call resolves to one of the sim
// package's continuation-taking functions or methods.
func isSimContinuationCall(info *types.Info, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !continuationFuncs[fn.Name()] {
		return false
	}
	return pkgPathSuffix(fn.Pkg().Path(), "internal/sim")
}

// collectEdges walks one function body (closures included) and records
// call, iface, continuation, and ref edges.
func collectEdges(p *Program, n *FuncNode, idx ifaceIndex) {
	walkFuncRefs(p, n.Pkg.Info, n.Decl.Body, idx, func(kind EdgeKind, to *FuncNode, pos token.Pos) {
		n.Edges = append(n.Edges, Edge{Kind: kind, To: to, Pos: pos})
	})
}

// collectVarRefs records every function referenced from a package-level
// var initializer (closures included). Initializers run when the
// package is initialized, so these functions are live wherever the
// package is.
func collectVarRefs(p *Program, idx ifaceIndex) {
	seen := make(map[*FuncNode]bool)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				walkFuncRefs(p, pkg.Info, gd, idx, func(_ EdgeKind, to *FuncNode, _ token.Pos) {
					if !seen[to] {
						seen[to] = true
						p.VarRefs = append(p.VarRefs, to)
					}
				})
			}
		}
	}
	sort.Slice(p.VarRefs, func(i, j int) bool { return p.VarRefs[i].ID < p.VarRefs[j].ID })
}

// walkFuncRefs walks root and calls emit for every declared function it
// calls or references, classified by edge kind.
func walkFuncRefs(p *Program, info *types.Info, root ast.Node, idx ifaceIndex, emit func(EdgeKind, *FuncNode, token.Pos)) {
	add := func(kind EdgeKind, to *FuncNode, pos token.Pos) {
		if to != nil {
			emit(kind, to, pos)
		}
	}

	// resolveIface fans an interface-method call out to every concrete
	// module-local method implementing it.
	resolveIface := func(obj *types.Func, pos token.Pos) {
		iface, _ := obj.Type().(*types.Signature)
		if iface == nil || iface.Recv() == nil {
			return
		}
		it, _ := iface.Recv().Type().Underlying().(*types.Interface)
		if it == nil {
			return
		}
		for _, cand := range idx[obj.Name()] {
			recv := cand.Obj.Type().(*types.Signature).Recv().Type()
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				add(EdgeIface, cand, pos)
			}
		}
	}

	walkWithStack(root, func(node ast.Node, stack []ast.Node) bool {
		// funcRefAt resolves expr to a declared function if it names one.
		funcRefAt := func(expr ast.Expr) (*types.Func, bool) {
			switch e := expr.(type) {
			case *ast.Ident:
				fn, ok := info.Uses[e].(*types.Func)
				return fn, ok
			case *ast.SelectorExpr:
				fn, ok := info.Uses[e.Sel].(*types.Func)
				return fn, ok
			}
			return nil, false
		}
		// callPosition reports whether expr is the callee of its parent.
		callPosition := func(expr ast.Expr) (*ast.CallExpr, bool) {
			for i := len(stack) - 1; i >= 0; i-- {
				switch parent := stack[i].(type) {
				case *ast.ParenExpr:
					continue
				case *ast.CallExpr:
					return parent, ast.Unparen(parent.Fun) == expr ||
						parent.Fun == expr
				default:
					return nil, false
				}
			}
			return nil, false
		}

		switch e := node.(type) {
		case *ast.SelectorExpr:
			fn, ok := funcRefAt(e)
			if !ok {
				return true
			}
			call, isCallee := callPosition(e)
			sig, _ := fn.Type().(*types.Signature)
			isIfaceMethod := sig != nil && sig.Recv() != nil &&
				isInterfaceType(sig.Recv().Type())
			switch {
			case isCallee && isIfaceMethod:
				resolveIface(fn, e.Pos())
			case isCallee:
				add(EdgeCall, p.nodeOf(fn), e.Pos())
			default:
				kind := EdgeRef
				if call != nil && isSimContinuationCall(info, call) {
					kind = EdgeContinuation
				} else if call == nil {
					if c, ok := enclosingCall(stack); ok && isSimContinuationCall(info, c) {
						kind = EdgeContinuation
					}
				}
				if isIfaceMethod {
					resolveIface(fn, e.Pos()) // interface method value
				} else {
					add(kind, p.nodeOf(fn), e.Pos())
				}
			}
			// The Sel ident is handled here; skip the X subtree only when
			// it is a bare package/value ident (no nested calls inside).
			return true
		case *ast.Ident:
			// Skip idents that are the Sel of a selector (handled above)
			// or definitions (the function's own name, labels, etc.).
			if len(stack) > 0 {
				if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.Sel == e {
					return true
				}
			}
			fn, ok := info.Uses[e].(*types.Func)
			if !ok {
				return true
			}
			if call, isCallee := callPosition(e); isCallee {
				add(EdgeCall, p.nodeOf(fn), e.Pos())
			} else {
				kind := EdgeRef
				if call != nil && isSimContinuationCall(info, call) {
					kind = EdgeContinuation
				} else if c, ok := enclosingCall(stack); ok && isSimContinuationCall(info, c) {
					kind = EdgeContinuation
				}
				add(kind, p.nodeOf(fn), e.Pos())
			}
		}
		return true
	})
}

// enclosingCall returns the nearest CallExpr ancestor, if any.
func enclosingCall(stack []ast.Node) (*ast.CallExpr, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		if c, ok := stack[i].(*ast.CallExpr); ok {
			return c, true
		}
	}
	return nil, false
}

// isInterfaceType reports whether t's underlying type is an interface.
func isInterfaceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// sortEdges orders and dedupes a node's edges: one edge per
// (kind, target), keeping the earliest site, sorted by target then kind.
func sortEdges(n *FuncNode) {
	sort.SliceStable(n.Edges, func(i, j int) bool {
		a, b := n.Edges[i], n.Edges[j]
		if a.To.ID != b.To.ID {
			return a.To.ID < b.To.ID
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Pos < b.Pos
	})
	out := n.Edges[:0]
	for _, e := range n.Edges {
		if len(out) > 0 && out[len(out)-1].To == e.To && out[len(out)-1].Kind == e.Kind {
			continue
		}
		out = append(out, e)
	}
	n.Edges = out
}

// markReachable runs a breadth-first sweep from the roots in sorted
// order, recording for every reachable node the root that first reached
// it. Root order and edge order are both deterministic, so Via is too.
func (p *Program) markReachable() {
	var queue []*FuncNode
	for _, r := range p.Roots {
		if r.Via == nil {
			r.Via = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if e.To.Via == nil {
				e.To.Via = n.Via
				queue = append(queue, e.To)
			}
		}
	}
}

// WriteGraph renders the call graph and the ownership write inventory
// as a deterministic text artifact (the -graph-out debug dump). File
// paths are relativized against base. Byte-identical output across runs
// over identical sources is a tested invariant.
func (p *Program) WriteGraph(w io.Writer, base string) error {
	bw := &errWriter{w: w}
	edges := 0
	for _, n := range p.Nodes {
		edges += len(n.Edges)
	}
	bw.printf("# prosper-lint interprocedural graph v1\n")
	bw.printf("nodes %d edges %d roots %d\n", len(p.Nodes), edges, len(p.Roots))
	bw.printf("\n[roots]\n")
	for _, r := range p.Roots {
		bw.printf("root %s %s:%d reason %q\n", r.ID, rel(base, r.File), r.Line, r.HotReason)
	}
	bw.printf("\n[nodes]\n")
	for _, n := range p.Nodes {
		hot := ""
		if n.Hot() {
			hot = " hot via " + n.Via.ID
		}
		bw.printf("node %s %s:%d%s\n", n.ID, rel(base, n.File), n.Line, hot)
		for _, e := range n.Edges {
			bw.printf("  %s %s :%d\n", e.Kind, e.To.ID, p.Fset.Position(e.Pos).Line)
		}
	}
	bw.printf("\n[ownership]\n")
	for _, row := range p.OwnershipMap() {
		bw.printf("write %s -> %s sites %d %s\n", row.Writer, row.State, row.Sites, row.Status)
	}
	return bw.err
}

// errWriter folds write errors so the dump code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
