// Package analyzers holds the pimvet checks. There is one: nopark,
// which checks that functions marked //pimvet:nopark (the server's
// combining window, the wire codec, the load generator's inner loop)
// and their module callees never park their goroutine.
package analyzers

import (
	"go/ast"
	"go/types"

	"pimds/internal/analysis"
)

// All returns every pimvet analyzer in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{NoPark}
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
