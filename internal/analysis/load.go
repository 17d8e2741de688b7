package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // module-relative import path (modulePath/rel/dir)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Errors holds parse and type errors. Analyzers still run on
	// packages with errors only if the caller chooses to.
	Errors []error

	loader *Loader // back-reference for cross-package lookups
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: intra-module imports are resolved by
// walking the module tree, everything else goes to the "source"
// importer (which type-checks GOROOT packages from source — no compiled
// export data needed).
type Loader struct {
	ModRoot string // absolute path of the directory containing go.mod
	ModPath string // module path declared in go.mod

	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package // keyed by import path
	dirs map[string]*Package // keyed by absolute dir
}

// NewLoader locates the module containing dir and returns a loader for
// it.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: root,
		ModPath: path,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		dirs:    make(map[string]*Package),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and parses its
// module line.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if strings.HasPrefix(line, "module ") {
					return d, strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// LoadDir parses and type-checks the package in dir (non-test files
// only). Results are cached, so loading a package twice — directly or
// via imports — is free.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.dirs[abs]; ok {
		return p, nil
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", abs, l.ModRoot)
	}
	importPath := l.ModPath
	if rel != "." {
		importPath = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(importPath, abs)
}

func (l *Loader) load(importPath, dir string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	pkg := &Package{Path: importPath, Fset: l.fset, loader: l}
	// Register before type-checking so import cycles fail in go/types
	// (as an error) rather than recursing forever here.
	l.pkgs[importPath] = pkg
	l.dirs[dir] = pkg

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	for _, n := range names {
		path := filepath.Join(dir, n)
		src, err := os.ReadFile(path)
		if err != nil {
			pkg.Errors = append(pkg.Errors, err)
			continue
		}
		if buildExcluded(src) {
			continue
		}
		f, err := parser.ParseFile(l.fset, path, src, parser.ParseComments)
		if err != nil {
			pkg.Errors = append(pkg.Errors, err)
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	// Check reports the first hard error; the Error hook above already
	// collected it (and any others), so the return is redundant here.
	pkg.Types, _ = conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	return pkg, nil
}

// buildExcluded reports whether the file's //go:build constraint (if
// any) excludes it from the default build the analyzer models: current
// GOOS/GOARCH, gc, no extra tags. Without this, tag-paired files (such
// as race.go/norace.go declaring the same constant) would both load and
// collide in the type checker. Only the //go:build form is recognized;
// the legacy // +build lines alone do not exclude a file.
func buildExcluded(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if constraint.IsGoBuild(trimmed) {
			expr, err := constraint.Parse(trimmed)
			if err != nil {
				return false
			}
			return !expr.Eval(buildTagSatisfied)
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			continue
		}
		// Reached the package clause (constraints must precede it).
		return false
	}
	return false
}

// buildTagSatisfied is the loader's tag assignment: the host platform
// and compiler are in, every go1.N language tag this toolchain accepts
// is in, and everything else (race, purego, custom tags) is out.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc", "unix":
		return true
	}
	return strings.HasPrefix(tag, "go1.")
}

// PackageFor returns the loaded module package with the given import
// path, loading it on demand. It returns nil for paths outside the
// module and for packages that fail to load or type-check — callers
// treat such callees as opaque.
func (l *Loader) PackageFor(path string) *Package {
	if path != l.ModPath && !strings.HasPrefix(path, l.ModPath+"/") {
		return nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
	p, err := l.load(path, dir)
	if err != nil || p.Types == nil {
		return nil
	}
	return p
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-local packages are
// loaded from the module tree, "unsafe" is built in, and everything
// else (the standard library) is delegated to the source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if p.Types == nil {
			return nil, fmt.Errorf("analysis: import %q failed to type-check", path)
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// ExpandPatterns resolves "dir/..." patterns relative to root into
// package directories. Like the go tool, the walk skips testdata,
// vendor, hidden and underscore-prefixed directories, directories with
// no non-test Go files, and nested modules (a directory with its own
// go.mod belongs to another module).
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	var out []string
	for _, pat := range patterns {
		dir, ok := strings.CutSuffix(pat, "...")
		if !ok {
			return nil, fmt.Errorf("analysis: pattern %q: only dir/... patterns are supported", pat)
		}
		base := filepath.Join(root, dir)
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != base {
				name := d.Name()
				if name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			ok, err := hasGoFiles(p)
			if ok {
				out = append(out, p)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}
