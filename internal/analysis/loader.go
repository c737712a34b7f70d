package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: module-local import paths are resolved by
// mapping them onto directories under the module root and recursing,
// everything else (the standard library) is delegated to the stdlib
// source importer. No go/packages, no x/tools.
type Loader struct {
	Fset   *token.FileSet
	Root   string // absolute module root directory (holds go.mod)
	Module string // module path from go.mod

	std     types.Importer
	pkgs    map[string]*Package // import path -> loaded package
	loading map[string]bool     // cycle guard
}

// Package is one loaded, type-checked package plus everything the
// passes need: syntax, type info, and raw source (for directive
// placement decisions).
type Package struct {
	Path  string      // import path (fixtures may use synthetic paths)
	Files []*ast.File // sorted by file name
	Names []string    // absolute file names, parallel to Files
	Pkg   *types.Package
	Info  *types.Info
	Src   map[string][]byte // file name -> source bytes

	// RootOnly marks a package loaded only so that the functions it
	// references count as live for the deadcode pass (see
	// RootOnlyDirs). No pass runs on it or reports in it.
	RootOnly bool
}

// NewLoader returns a loader anchored at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Root:    root,
		Module:  module,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and reads the
// module path from its first "module" directive.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					mod := strings.TrimSpace(rest)
					if mod == "" {
						break
					}
					return dir, mod, nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load expands patterns ("./...", "dir/...", or plain directories,
// relative to the module root) and returns the matched packages in
// deterministic (import path) order. Directories named "testdata",
// "vendor", or starting with "." or "_" are skipped by ... expansion,
// matching the go tool's convention.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		switch {
		case pat == "./..." || pat == "...":
			expanded, err := l.expand(l.Root)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.Root, strings.TrimSuffix(pat, "/..."))
			expanded, err := l.expand(base)
			if err != nil {
				return nil, err
			}
			for _, d := range expanded {
				add(d)
			}
		default:
			add(filepath.Join(l.Root, pat))
		}
	}
	var out []*Package
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// expand returns every directory under base that holds at least one
// non-test Go file.
func (l *Loader) expand(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: directory %s is outside module %s", dir, l.Root)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses and type-checks the single package in dir under the
// given import path. Test files are excluded: the determinism contract
// is about simulator code, and test-only helpers routinely use host
// facilities on purpose. Returns (nil, nil) for a directory with no
// non-test Go files.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	pkg := &Package{Path: path, Src: make(map[string][]byte)}
	pkgName := ""
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		f, err := parser.ParseFile(l.Fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s: multiple packages in one directory (%s and %s)",
				dir, pkgName, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Names = append(pkg.Names, name)
		pkg.Src[name] = src
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	if len(typeErrs) > 0 {
		max := len(typeErrs)
		if max > 5 {
			max = 5
		}
		msgs := make([]string, 0, max)
		for _, e := range typeErrs[:max] {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type-checking %s failed:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	pkg.Pkg = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-local paths load from the
// repository source tree, anything else falls through to the stdlib
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Pkg, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files for %s", path)
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}
