// Package analyzers holds the pimvet checks. Each analyzer guards one
// invariant of the reproduction that the compiler cannot see:
//
//   - determinism: the simulator is bit-for-bit reproducible under a
//     seed (no wall clocks, no global RNG, no map-iteration-order or
//     goroutine-schedule dependence in simulated code).
//   - allocfree: functions marked //pimvet:allocfree (server combiner
//     apply, wire encode/decode, loadgen inner loop) and their module
//     callees never heap-allocate and never block on a channel.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"pimds/internal/analysis"
)

// All returns every pimvet analyzer in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Determinism, AllocFree}
}

// Package-path scopes. Analyzers use the pass's logical path (which
// testdata fixtures override with //pimvet:package) so scope rules are
// testable.
const (
	simPath  = "pimds/internal/sim"
	corePath = "pimds/internal/core"
)

func underPath(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
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

// funcNode is one function body in the files — a declaration or a
// literal — paired with its signature.
type funcNode struct {
	decl *ast.FuncDecl // nil for literals
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
				out = append(out, funcNode{typ: fn.Type, body: fn.Body})
			}
			return true
		})
	}
	return out
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
