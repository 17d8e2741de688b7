// Package analysis is pimvet: one static check, nopark, built on the
// standard library's go/parser and go/types (the repo is stdlib-only,
// so golang.org/x/tools is off limits). TestRepoIsClean runs it over
// the whole module inside `go test ./...`.
//
// nopark enforces the contract of functions marked //pimvet:nopark:
// the marked function — and every module function it transitively
// calls — never parks its goroutine. The paper's flat-combining result
// holds only while the combiner's sequential apply loop runs to
// completion: one parked combiner parks every connection hashing to its
// shard. No runtime test sees a lock or a channel hand-off inside the
// window (it only adds latency under contention), so this is the check.
// Allocation, the other half of the hot-path contract, is pinned at
// runtime by the AllocsPerRun tests.
//
// Flagged inside marked code and its module-transitive callees:
//
//   - channel sends, receives, selects and range-over-channel;
//   - calls to standard-library functions outside a small allowlist of
//     known non-parking primitives (sync/atomic, math, math/bits,
//     encoding/binary accessors, errors.Is/As/Unwrap, crc32.Checksum,
//     clock reads, math/rand draws, sort.Search*, strconv.Append*).
//     Locks, sleeps, I/O (os, syscall, io, bufio, net) and printing all
//     fall outside it.
//
// Known holes, accepted for simplicity: calls through function values
// and through module-declared interfaces are not followed (mark the
// implementations instead).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// String formats the diagnostic the way go vet does:
// path/file.go:line:col: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// Check runs nopark over pkgs, which must hold every module package
// their marked functions reach (Load's -deps set does). Each marked
// function is scanned with the local rule, then its module callees are
// chased through the fact checker; a chain failure is reported at the
// call site in the marked function. A malformed //pimvet: directive or
// a mark attached to no function is a finding of its own: a typo would
// otherwise silently check nothing.
func Check(pkgs []*Package) []Diagnostic {
	fc := &factChecker{
		pkgs:    make(map[string]*Package),
		facts:   make(map[*types.Func]*funcFact),
		indexes: make(map[*Package]map[*types.Func]*ast.FuncDecl),
	}
	for _, p := range pkgs {
		fc.pkgs[p.Path] = p
	}
	var out []Diagnostic
	report := func(posn token.Position, format string, args ...interface{}) {
		out = append(out, Diagnostic{Pos: posn, Message: fmt.Sprintf(format, args...)})
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, m := range markedFuncs(pkg.Fset, file, report) {
				viols, callees := fc.scan(pkg.Info, m)
				for _, v := range viols {
					report(pkg.Fset.Position(v.pos), "%s is marked //pimvet:nopark but %s", m.Name.Name, v.msg)
				}
				for _, c := range callees {
					if fact := fc.check(c.fn); !fact.clean {
						report(pkg.Fset.Position(c.pos), "%s is marked //pimvet:nopark but calls %s, which %s",
							m.Name.Name, c.fn.FullName(), fact.why)
					}
				}
			}
		}
	}
	return out
}

// markedFuncs returns the file's function declarations annotated with
// //pimvet:nopark. The directive must sit inside the declaration's doc
// comment (a comment block immediately above the func line). Malformed
// directives and marks attached to nothing are reported.
func markedFuncs(fset *token.FileSet, file *ast.File, report func(token.Position, string, ...interface{})) []*ast.FuncDecl {
	var marks []Directive
	for _, d := range ParseDirectives(fset, file) {
		if d.Kind == "" {
			report(d.Pos, "unknown //pimvet: directive %q", directivePrefix+d.Arg)
		} else {
			marks = append(marks, d)
		}
	}
	if len(marks) == 0 {
		return nil
	}
	var marked []*ast.FuncDecl
	used := make([]bool, len(marks))
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Doc == nil {
			continue
		}
		lo := fset.Position(fd.Doc.Pos()).Line
		hi := fset.Position(fd.Pos()).Line - 1
		for i, d := range marks {
			if d.Pos.Line >= lo && d.Pos.Line <= hi {
				used[i] = true
				marked = append(marked, fd)
				break
			}
		}
	}
	for i, d := range marks {
		if !used[i] {
			report(d.Pos, "//pimvet:nopark is not attached to a function declaration; write it in the function's doc comment")
		}
	}
	return marked
}

// violation is one breach of the local rule inside a function body.
type violation struct {
	pos token.Pos
	msg string
}

// calleeRef is a resolved module call with its site, so a callee's
// failure can be reported where the marked function makes the call.
type calleeRef struct {
	fn  *types.Func
	pos token.Pos
}

// funcFact is the memoized verdict for one function: clean, or a
// human-readable predicate explaining the first failure found.
type funcFact struct {
	clean    bool
	why      string // e.g. "sends on a channel at seqlist.go:88"
	visiting bool   // cycle guard; cycles resolve optimistically
}

// factChecker computes transitive function facts across the module.
type factChecker struct {
	pkgs    map[string]*Package // the module's packages by import path
	facts   map[*types.Func]*funcFact
	indexes map[*Package]map[*types.Func]*ast.FuncDecl
}

// check returns the fact for a module function, computing and
// memoizing it on first use. A function without a body here (an
// interface method) is clean by fiat.
func (fc *factChecker) check(f *types.Func) *funcFact {
	if fact, ok := fc.facts[f]; ok {
		if fact.visiting {
			return &funcFact{clean: true} // cycle: optimistic
		}
		return fact
	}
	fact := &funcFact{clean: true, visiting: true}
	fc.facts[f] = fact
	defer func() { fact.visiting = false }()

	pkg := fc.pkgs[f.Pkg().Path()]
	decl, ok := fc.index(pkg)[f]
	if !ok {
		return fact
	}
	viols, callees := fc.scan(pkg.Info, decl)
	if len(viols) > 0 {
		posn := pkg.Fset.Position(viols[0].pos)
		fact.clean = false
		fact.why = fmt.Sprintf("%s at %s:%d", viols[0].msg, filepath.Base(posn.Filename), posn.Line)
		return fact
	}
	for _, c := range callees {
		if sub := fc.check(c.fn); !sub.clean {
			fact.clean = false
			fact.why = fmt.Sprintf("calls %s, which %s", c.fn.FullName(), sub.why)
			return fact
		}
	}
	return fact
}

// index maps a package's function objects to their declarations.
func (fc *factChecker) index(pkg *Package) map[*types.Func]*ast.FuncDecl {
	idx, ok := fc.indexes[pkg]
	if !ok {
		idx = make(map[*types.Func]*ast.FuncDecl)
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						idx[obj] = fd
					}
				}
			}
		}
		fc.indexes[pkg] = idx
	}
	return idx
}

// scan is the nopark local rule: every channel operation and
// non-allowlisted stdlib call in one function body, plus the module
// calls to chase.
func (fc *factChecker) scan(info *types.Info, fn *ast.FuncDecl) ([]violation, []calleeRef) {
	var viols []violation
	var callees []calleeRef
	add := func(pos token.Pos, msg string) { viols = append(viols, violation{pos, msg}) }

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				add(e.Pos(), "receives from a channel")
			}
		case *ast.SendStmt:
			add(e.Arrow, "sends on a channel")
		case *ast.SelectStmt:
			add(e.Pos(), "selects on channels")
		case *ast.RangeStmt:
			if tv, ok := info.Types[e.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					add(e.Pos(), "ranges over a channel")
				}
			}
		case *ast.CallExpr:
			f := pkgFunc(info, e)
			if f == nil || f.Pkg() == nil {
				return true
			}
			switch path := f.Pkg().Path(); {
			case fc.pkgs[path] != nil:
				callees = append(callees, calleeRef{f, e.Pos()})
			case !noparkPkgs[path] && !noparkFuncs[path][f.Name()]:
				add(e.Pos(), "calls "+f.FullName()+", which is outside the non-parking allowlist")
			}
		}
		return true
	})
	return viols, callees
}

// pkgFunc resolves a call expression to the package-level function or
// method it invokes, using type information. Returns nil for calls
// through function values, built-ins and conversions. A method of an
// instantiated generic type resolves to its origin, the object its
// declaration defines.
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f.Origin()
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

// noparkPkgs are stdlib packages whose entire API never parks.
var noparkPkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

// noparkFuncs allowlists individual stdlib functions and methods
// (matched by package path and bare name) known never to park.
var noparkFuncs = map[string]map[string]bool{
	"encoding/binary": {
		"Uint16": true, "Uint32": true, "Uint64": true,
		"PutUint16": true, "PutUint32": true, "PutUint64": true,
		"AppendUint16": true, "AppendUint32": true, "AppendUint64": true,
	},
	"errors":     {"Is": true, "As": true, "Unwrap": true},
	"hash/crc32": {"Checksum": true},
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
