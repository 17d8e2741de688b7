// Package analyzers holds the pimvet checks. Each analyzer guards one
// invariant of the reproduction that the compiler cannot see:
//
//   - determinism: the simulator is bit-for-bit reproducible under a
//     seed (no wall clocks, no global RNG, no map-iteration-order or
//     goroutine-schedule dependence in simulated code).
//   - costcharge: algorithm code cannot touch vault-resident state
//     without charging the paper's latency model.
//   - obssafety: observability is write-only from simulated code, so
//     enabling metrics changes results by exactly zero.
//   - allocfree: functions marked //pimvet:allocfree (server combiner
//     apply, wire encode/decode, loadgen inner loop) and their module
//     callees never heap-allocate.
//   - combinerpurity: functions marked //pimvet:nonblocking and their
//     module callees never block (no channel ops, locks, sleeps or
//     I/O).
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"pimds/internal/analysis"
)

// All returns every pimvet analyzer in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		CostCharge,
		ObsSafety,
		AllocFree,
		CombinerPurity,
	}
}

// ByName resolves a comma-separated analyzer list ("" or "all" means
// everything). Unknown names return nil.
func ByName(names string) []*analysis.Analyzer {
	if names == "" || names == "all" {
		return All()
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
			}
		}
		if !found {
			return nil
		}
	}
	return out
}

// Package-path scopes. Analyzers use the pass's logical path (which
// testdata fixtures override with //pimvet:package) so scope rules are
// testable.
const (
	simPath    = "pimds/internal/sim"
	corePath   = "pimds/internal/core"
	cdsPath    = "pimds/internal/cds"
	obsPath    = "pimds/internal/obs"
	healthPath = "pimds/internal/obs/health"
	profPath   = "pimds/internal/prof"
	serverPath = "pimds/internal/server"
)

func underPath(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// namedType unwraps pointers and returns the named type of t, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// typeFromPkg reports whether t (possibly behind pointers) is a named
// type declared in a package whose path is pkgPath (or, when
// underTree is true, any package under that path prefix).
func typeFromPkg(t types.Type, pkgPath string, underTree bool) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	p := n.Obj().Pkg().Path()
	if underTree {
		return underPath(p, pkgPath)
	}
	return p == pkgPath
}

// isSimType reports whether t is sim.<name> (possibly behind pointers).
func isSimType(t types.Type, name string) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == simPath && n.Obj().Name() == name
}

// pkgFunc resolves a call expression to the package-level function or
// method it invokes, using type information. Returns nil for calls
// through function values, built-ins and conversions.
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleePkgPath returns the import path of the package a call resolves
// into, or "".
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	f := pkgFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// funcNodes yields every function body in the files: declarations and
// literals, paired with their parameter list types.
type funcNode struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	typ  *ast.FuncType
	body *ast.BlockStmt
}

func (f funcNode) name() string {
	if f.decl != nil {
		return f.decl.Name.Name
	}
	return "func literal"
}

func allFuncs(files []*ast.File) []funcNode {
	var out []funcNode
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, funcNode{decl: fn, typ: fn.Type, body: fn.Body})
				}
			case *ast.FuncLit:
				out = append(out, funcNode{lit: fn, typ: fn.Type, body: fn.Body})
			}
			return true
		})
	}
	return out
}

// paramOfType returns the identifier of the first parameter whose type
// matches pred, or nil.
func paramOfType(info *types.Info, typ *ast.FuncType, pred func(types.Type) bool) *ast.Ident {
	if typ.Params == nil {
		return nil
	}
	for _, field := range typ.Params.List {
		t := info.Types[field.Type].Type
		if t == nil || !pred(t) {
			continue
		}
		if len(field.Names) > 0 {
			return field.Names[0]
		}
	}
	return nil
}

// inspectShallow walks body but does not descend into nested function
// literals: their statements execute on their own schedule and are
// analyzed as functions in their own right.
func inspectShallow(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		return fn(n)
	})
}

// rootIdent returns the identifier at the base of a selector/index
// chain: for a.b[i].c it returns a. Returns nil when the base is not a
// plain identifier (e.g. a call result or composite literal).
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

// declaredWithin reports whether obj's declaration lies inside the
// node's source range.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() != 0 && n != nil &&
		obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}
