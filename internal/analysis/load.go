package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one package of the main module, parsed and type-checked
// from source (non-test files only).
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the part of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Main bool }
}

// Load runs `go list -deps -export -json` over patterns in dir, with
// the go command in runtime.GOROOT()/bin, so the export data matches
// the go/types this binary was built with; a missing go command is an
// error, not a skip. The go
// command applies build constraints, expands patterns and stops at
// nested modules; its -deps order puts every package after its
// imports. Load parses and type-checks the main module's packages from
// source in that order and reads every other package from the export
// data the go command built. A package that fails to parse or
// type-check fails the load: a check on a broken tree reports nonsense.
func Load(dir string, patterns ...string) ([]*Package, error) {
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(goCmd, append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: %s list: %v %s", goCmd, err, bytes.TrimSpace(stderr.Bytes()))
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	byPath := make(map[string]*Package)
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return p.Types, nil
		}
		return std.Import(path)
	})}

	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Module == nil || !lp.Module.Main {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		pkg := &Package{Path: lp.ImportPath, Fset: fset, Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		if pkg.Types, err = conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
			return nil, fmt.Errorf("analysis: %s: %v", lp.ImportPath, err)
		}
		byPath[pkg.Path] = pkg
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
