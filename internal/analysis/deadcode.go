package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadcode reports the functions, methods and interface methods that no
// entry point of the program reaches through the call graph
// (callgraph.go). The entry points are:
//
//   - main in every package main (the CLIs and examples);
//   - every init, and every function a package-level var initializer
//     references;
//   - the exported functions and methods declared in the module's root
//     package (the public prosper API). Methods of internal types that
//     the API exposes through re-exported fields, aliases or accessors
//     are not entry points: that reach is incidental, not API;
//   - every function of a root-only package (RootOnlyDirs), so whatever
//     the benchmark harness calls stays live;
//   - every method that puts its type into the method set of a
//     standard-library interface: the standard library calls String,
//     Error, Less, Write, MarshalJSON, Import and friends, and the graph
//     has no edge into it.
//
// A function kept by a suppressed finding (a helper that tests in
// another package call) counts as live, so what it calls is not
// reported in turn.
//
// Only packages in the import closure of an entry package (a package
// main, the root package, or a root-only package) are judged, as the go
// tool's deadcode does: a run over a library subtree reports nothing.
type Deadcode struct{}

// NewDeadcode returns the pass.
func NewDeadcode() *Deadcode { return &Deadcode{} }

// Name implements Pass.
func (*Deadcode) Name() string { return "deadcode" }

// Doc implements Pass.
func (*Deadcode) Doc() string {
	return "functions and interface methods no main, init, root-package API or benchmark reference reaches"
}

// Run implements Pass. The work is whole-program; see RunProgram.
func (*Deadcode) Run(pkg *Package, r *Reporter) {}

// RunProgram implements ProgramPass.
func (*Deadcode) RunProgram(prog *Program, r *Reporter) {
	judged := entryClosure(prog)
	if len(judged) == 0 {
		return
	}
	live := reach(deadcodeRoots(prog))
	var kept []*FuncNode
	for _, n := range prog.Nodes {
		if judged[n.Pkg] && !live[n] && r.Suppresses("deadcode", n.Decl.Name.Pos()) {
			kept = append(kept, n)
		}
	}
	keptLive := reach(kept)
	for _, n := range prog.Nodes {
		if !judged[n.Pkg] || live[n] || n.Obj.Name() == "_" {
			continue
		}
		if keptLive[n] && !r.Suppresses("deadcode", n.Decl.Name.Pos()) {
			continue // only a kept function calls it
		}
		r.Report("deadcode", n.Decl.Name.Pos(), n.ID+" is unreachable from every entry point")
	}
	for n := range keptLive {
		live[n] = true
	}
	reportDeadIfaceMethods(prog, judged, live, r)
}

// entryClosure returns the packages to judge: the module-local import
// closure of the entry packages, minus the root-only ones.
func entryClosure(prog *Program) map[*Package]bool {
	byPath := make(map[string]*Package, len(prog.Pkgs))
	for _, pkg := range prog.Pkgs {
		byPath[pkg.Path] = pkg
	}
	seen := make(map[*Package]bool)
	var visit func(pkg *Package)
	visit = func(pkg *Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Pkg.Imports() {
			visit(byPath[imp.Path()])
		}
	}
	for _, pkg := range prog.Pkgs {
		if pkg.RootOnly || pkg.Path == prog.Module || pkg.Pkg.Name() == "main" {
			visit(pkg)
		}
	}
	for pkg := range seen {
		if pkg.RootOnly {
			delete(seen, pkg)
		}
	}
	return seen
}

// deadcodeRoots lists the entry-point functions.
func deadcodeRoots(prog *Program) []*FuncNode {
	std := stdInterfaces(prog)
	roots := append([]*FuncNode(nil), prog.VarRefs...)
	for _, n := range prog.Nodes {
		name := n.Obj.Name()
		switch recv := n.Obj.Type().(*types.Signature).Recv(); {
		case n.Pkg.RootOnly:
		case recv == nil && (name == "init" || name == "main" && n.Pkg.Pkg.Name() == "main"):
		case n.Pkg.Path == prog.Module && n.Obj.Exported() && (recv == nil || recvExported(recv.Type())):
		case recv != nil && implementsAny(recv.Type(), std[name]):
		default:
			continue
		}
		roots = append(roots, n)
	}
	return roots
}

// recvExported reports whether a receiver type names an exported type.
func recvExported(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Exported()
}

// stdInterfaces indexes, by method name, error and every exported
// interface type declared in the standard-library packages the program
// imports, directly or not.
func stdInterfaces(prog *Program) map[string][]*types.Interface {
	idx := make(map[string][]*types.Interface)
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			idx[it.Method(i).Name()] = append(idx[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
		if pkg.Path() == prog.Module || strings.HasPrefix(pkg.Path(), prog.Module+"/") {
			return
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(it)
				}
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		visit(pkg.Pkg)
	}
	return idx
}

// implementsAny reports whether *recv (whose method set includes recv's)
// implements one of ifaces.
func implementsAny(recv types.Type, ifaces []*types.Interface) bool {
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv)
	}
	for _, it := range ifaces {
		if types.Implements(recv, it) {
			return true
		}
	}
	return false
}

// reach returns every node reachable from roots along any edge.
func reach(roots []*FuncNode) map[*FuncNode]bool {
	live := make(map[*FuncNode]bool)
	for _, n := range roots {
		live[n] = true
	}
	for queue := roots; len(queue) > 0; queue = queue[1:] {
		for _, e := range queue[0].Edges {
			if !live[e.To] {
				live[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return live
}

// reportDeadIfaceMethods reports the methods of judged interface types
// that no live function and no package-level var initializer calls or
// takes as a method value. Interfaces the root package exports are API.
func reportDeadIfaceMethods(prog *Program, judged map[*Package]bool, live map[*FuncNode]bool, r *Reporter) {
	used := make(map[*types.Func]bool)
	markUses := func(info *types.Info, root ast.Node) {
		ast.Inspect(root, func(node ast.Node) bool {
			if sel, ok := node.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
			return true
		})
	}
	for n := range live {
		if n.Decl.Body != nil {
			markUses(n.Pkg.Info, n.Decl.Body)
		}
	}
	for pkg := range judged {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					markUses(pkg.Info, gd)
				}
			}
		}
	}
	for pkg := range judged {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				ts, ok := node.(*ast.TypeSpec)
				if !ok {
					return true
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok || pkg.Path == prog.Module && ts.Name.IsExported() {
					return true
				}
				for _, field := range it.Methods.List {
					for _, name := range field.Names {
						if fn, ok := pkg.Info.Defs[name].(*types.Func); ok && !used[fn] {
							r.Report("deadcode", name.Pos(),
								"interface method "+ts.Name.Name+"."+name.Name+" is never called from live code")
						}
					}
				}
				return true
			})
		}
	}
}
