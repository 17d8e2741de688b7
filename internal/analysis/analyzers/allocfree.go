package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"pimds/internal/analysis"
)

// AllocFree enforces the hot-path contract of functions marked
// //pimvet:allocfree: the marked function — and every module function
// it transitively calls — must neither allocate on the heap nor block.
// The paper's flat-combining result holds only while the combiner's
// sequential apply loop and the wire fast paths stay allocation-free
// and never park: one stalled combiner parks every connection hashing
// to its shard. This analyzer turns that performance requirement into a
// machine-checked invariant (the AllocsPerRun tests pin the allocation
// half at runtime).
//
// Flagged inside marked code and its module-transitive callees:
//
//   - make, new, &T{...} composite literals, slice and map literals;
//   - append whose destination is a function-local slice (appending
//     into caller-provided, receiver-held or package-level storage is
//     allowed: that is the preallocated-scratch idiom);
//   - interface boxing — at call arguments, assignments, returns and
//     conversions — of values an interface cannot hold inline;
//   - string concatenation and string<->[]byte conversions;
//   - function literals (closure allocation) and go statements;
//   - map inserts;
//   - channel sends, receives, selects and range-over-channel;
//   - calls to standard-library functions outside a small allowlist of
//     known non-allocating, non-parking primitives (sync/atomic, math,
//     math/bits, encoding/binary accessors, errors.Is/As/Unwrap,
//     io.ReadFull, time arithmetic, math/rand draws, sort.Search*,
//     strconv.Append*). Locks, sleeps, fmt printing and file I/O (os,
//     syscall, bufio) all fall outside it.
//
// Exemptions — amortized grow paths, free-list refills — use ordinary
// //pimvet:allow allocfree directives with justifications, in the file
// where the allocation lives; the exemption keeps working when the
// function is reached from a marked caller in another package.
//
// Known holes, accepted for simplicity: calls through function values
// and through module-declared interfaces are not followed (annotate the
// implementations instead), and stack-vs-heap escape analysis is not
// modeled — the analyzer is deliberately more conservative than the
// compiler.
var AllocFree = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "enforces //pimvet:allocfree: marked hot paths and their module callees must not heap-allocate or block",
	Run:  runAllocFree,
}

// runAllocFree scans each marked function locally, then chases its
// module callees through the fact checker, reporting chain failures at
// the call site inside the package under analysis.
func runAllocFree(pass *analysis.Pass) {
	marked, stray := markedFuncs(pass)
	for _, d := range stray {
		pass.ReportPosf(d.Pos,
			"//pimvet:allocfree is not attached to a function declaration; write it in the function's doc comment")
	}
	if len(marked) == 0 {
		return
	}
	fc := newFactChecker(pass)
	for _, m := range marked {
		viols, callees := scanAllocs(pass.TypesInfo, m)
		for _, v := range viols {
			pass.Reportf(v.pos, "%s is marked //pimvet:allocfree but %s", m.name(), v.msg)
		}
		for _, c := range callees {
			if fact := fc.check(c.fn); !fact.clean {
				pass.Reportf(c.pos, "%s is marked //pimvet:allocfree but calls %s, which %s",
					m.name(), c.fn.FullName(), fact.why)
			}
		}
	}
}

// allocfreePkgs are stdlib packages whose entire API is non-allocating.
var allocfreePkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

// allocfreeFuncs allowlists individual stdlib functions and methods
// (matched by package path and bare name) known not to allocate.
var allocfreeFuncs = map[string]map[string]bool{
	"encoding/binary": {
		"Uint16": true, "Uint32": true, "Uint64": true,
		"PutUint16": true, "PutUint32": true, "PutUint64": true,
		"AppendUint16": true, "AppendUint32": true, "AppendUint64": true,
	},
	"errors": {"Is": true, "As": true, "Unwrap": true},
	// Checksum over a prebuilt table; MakeTable allocates and must run
	// at package init, never on the hot path.
	"hash/crc32": {"Checksum": true},
	"io":         {"ReadFull": true, "ReadAtLeast": true},
	"time": {
		"Now": true, "Since": true, "Until": true, "Sub": true,
		"Nanoseconds": true, "Microseconds": true, "Milliseconds": true,
		"Seconds": true, "UnixNano": true, "Unix": true,
	},
	"math/rand": {
		"Int": true, "Intn": true, "Int31": true, "Int31n": true,
		"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
		"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	},
	"sort":    {"Search": true, "SearchInts": true, "SearchStrings": true},
	"strconv": {"AppendInt": true, "AppendUint": true},
}

func allocAllowed(pkgPath, name string) bool {
	if allocfreePkgs[pkgPath] {
		return true
	}
	return allocfreeFuncs[pkgPath][name]
}

// scanAllocs is the allocfree local rule: every allocation site and
// channel operation in one function body, plus the module calls to
// chase.
func scanAllocs(info *types.Info, fn funcNode) ([]violation, []calleeRef) {
	var viols []violation
	var callees []calleeRef
	add := func(pos token.Pos, format string, args ...interface{}) {
		viols = append(viols, violation{pos, fmt.Sprintf(format, args...)})
	}
	covered := make(map[ast.Node]bool) // composite literals already reported behind &

	ast.Inspect(fn.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			add(n.Pos(), "allocates a closure (function literal)")
			return false
		}
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					add(e.Pos(), "heap-allocates a composite literal (&T{...})")
					covered[cl] = true
				}
			}
			if e.Op == token.ARROW {
				add(e.Pos(), "receives from a channel (blocks)")
			}
		case *ast.SendStmt:
			add(e.Arrow, "sends on a channel (blocks)")
		case *ast.SelectStmt:
			add(e.Pos(), "selects on channels (blocks)")
		case *ast.RangeStmt:
			if t := typeOf(info, e.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					add(e.Pos(), "ranges over a channel (blocks)")
				}
			}
		case *ast.CompositeLit:
			if covered[e] {
				return true
			}
			if t := typeOf(info, e); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					add(e.Pos(), "allocates a slice literal")
				case *types.Map:
					add(e.Pos(), "allocates a map literal")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := info.Types[e]; ok && tv.Value == nil && isStringType(tv.Type) {
					add(e.Pos(), "allocates by string concatenation")
				}
			}
		case *ast.GoStmt:
			add(e.Pos(), "starts a goroutine (allocates)")
		case *ast.ReturnStmt:
			scanReturnBoxing(info, fn, e, add)
		case *ast.AssignStmt:
			scanAssignAllocs(info, e, add)
		case *ast.CallExpr:
			callees = scanCallAllocs(info, fn, e, add, callees)
		}
		return true
	})
	return viols, callees
}

// scanCallAllocs classifies one call: conversion, builtin, boxing at
// the arguments, then callee policy (module call to follow, allowlisted
// stdlib, or violation).
func scanCallAllocs(info *types.Info, fn funcNode, call *ast.CallExpr,
	add func(token.Pos, string, ...interface{}), callees []calleeRef) []calleeRef {

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			scanConversion(info, tv.Type, call, add)
		}
		return callees
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "allocates via make; preallocate in setup or reuse a scratch buffer")
			case "new":
				add(call.Pos(), "allocates via new")
			case "append":
				if len(call.Args) == 0 {
					return callees
				}
				root := rootIdent(call.Args[0])
				var obj types.Object
				if root != nil {
					obj = info.ObjectOf(root)
				}
				if root == nil || declaredWithin(obj, fn.body) {
					add(call.Pos(), "appends to a function-local slice (allocates per call); append into caller-provided or receiver scratch storage")
				}
			}
			return callees
		}
	}
	scanArgBoxing(info, call, add)
	if f := pkgFunc(info, call); f != nil && f.Pkg() != nil {
		path := f.Pkg().Path()
		switch {
		case isModulePath(path):
			callees = append(callees, calleeRef{f, call.Pos()})
		case allocAllowed(path, f.Name()):
		default:
			add(call.Pos(), "calls %s, which is outside the allocation-free allowlist", f.FullName())
		}
	}
	return callees
}

// scanConversion flags allocating conversions: string<->[]byte/[]rune
// and boxing conversions to interface types.
func scanConversion(info *types.Info, target types.Type, call *ast.CallExpr,
	add func(token.Pos, string, ...interface{})) {

	src := typeOf(info, call.Args[0])
	if src == nil {
		return
	}
	switch {
	case isStringType(target) && isByteOrRuneSlice(src):
		add(call.Pos(), "allocates converting a byte/rune slice to string")
	case isByteOrRuneSlice(target) && isStringType(src):
		add(call.Pos(), "allocates converting a string to a byte/rune slice")
	case types.IsInterface(target) && !types.IsInterface(src) &&
		!info.Types[call.Args[0]].IsNil() && !pointerShaped(src):
		add(call.Pos(), "boxes a value into an interface (conversion)")
	}
}

// scanArgBoxing flags concrete values passed where the callee takes an
// interface: each such argument is boxed, which allocates for any value
// an interface cannot hold as a single pointer word.
func scanArgBoxing(info *types.Info, call *ast.CallExpr, add func(token.Pos, string, ...interface{})) {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis.IsValid() {
				pt = last // the slice is passed whole; no per-element boxing
			} else if st, ok := last.Underlying().(*types.Slice); ok {
				pt = st.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		atv := info.Types[arg]
		if atv.Type == nil || atv.IsNil() || types.IsInterface(atv.Type) || pointerShaped(atv.Type) {
			continue
		}
		add(arg.Pos(), "boxes a value into an interface argument (allocates)")
	}
}

// scanAssignAllocs flags interface boxing on plain assignment, string
// +=, and map inserts.
func scanAssignAllocs(info *types.Info, e *ast.AssignStmt, add func(token.Pos, string, ...interface{})) {
	if e.Tok == token.ASSIGN && len(e.Lhs) == len(e.Rhs) {
		for i := range e.Lhs {
			if id, ok := e.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			lt := typeOf(info, e.Lhs[i])
			rtv := info.Types[e.Rhs[i]]
			if lt != nil && types.IsInterface(lt) && rtv.Type != nil &&
				!types.IsInterface(rtv.Type) && !rtv.IsNil() && !pointerShaped(rtv.Type) {
				add(e.Rhs[i].Pos(), "boxes a value into an interface on assignment")
			}
		}
	}
	if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(typeOf(info, e.Lhs[0])) {
		add(e.Pos(), "allocates by string concatenation")
	}
	if e.Tok == token.ASSIGN || e.Tok == token.DEFINE {
		for _, lhs := range e.Lhs {
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				if t := typeOf(info, ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						add(ix.Pos(), "may allocate inserting into a map")
					}
				}
			}
		}
	}
}

// scanReturnBoxing flags concrete values returned through interface
// result types.
func scanReturnBoxing(info *types.Info, fn funcNode, ret *ast.ReturnStmt,
	add func(token.Pos, string, ...interface{})) {

	if fn.typ.Results == nil || len(ret.Results) == 0 {
		return
	}
	var rts []types.Type
	for _, field := range fn.typ.Results.List {
		t := typeOf(info, field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			rts = append(rts, t)
		}
	}
	if len(ret.Results) != len(rts) {
		return // naked return or tuple-returning call: nothing new boxed here
	}
	for i, r := range ret.Results {
		rtv := info.Types[r]
		if rts[i] != nil && types.IsInterface(rts[i]) && rtv.Type != nil &&
			!types.IsInterface(rtv.Type) && !rtv.IsNil() && !pointerShaped(rtv.Type) {
			add(r.Pos(), "boxes a value into an interface return (allocates)")
		}
	}
}

// typeOf is info.Types[e].Type with nil-safety.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether an interface can hold a value of type t
// without allocating: pointer-like types are stored directly in the
// interface word.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}
