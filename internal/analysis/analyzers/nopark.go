package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"pimds/internal/analysis"
)

// NoPark enforces the contract of functions marked //pimvet:nopark: the
// marked function — and every module function it transitively calls —
// never parks its goroutine. The paper's flat-combining result holds
// only while the combiner's sequential apply loop runs to completion:
// one parked combiner parks every connection hashing to its shard. No
// runtime test sees a lock or a channel hand-off inside the window (it
// only adds latency under contention), so this analyzer is the check.
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
var NoPark = &analysis.Analyzer{
	Name: "nopark",
	Doc:  "enforces //pimvet:nopark: marked functions and their module callees never park their goroutine",
	Run:  runNoPark,
}

// runNoPark scans each marked function locally, then chases its module
// callees through the fact checker, reporting chain failures at the
// call site inside the package under analysis.
func runNoPark(pass *analysis.Pass) {
	marked, stray := markedFuncs(pass)
	for _, d := range stray {
		pass.ReportPosf(d.Pos,
			"//pimvet:nopark is not attached to a function declaration; write it in the function's doc comment")
	}
	if len(marked) == 0 {
		return
	}
	fc := newFactChecker(pass.Lookup)
	for _, m := range marked {
		viols, callees := scanParks(pass.TypesInfo, m)
		for _, v := range viols {
			pass.Reportf(v.pos, "%s is marked //pimvet:nopark but %s", m.Name.Name, v.msg)
		}
		for _, c := range callees {
			if fact := fc.check(c.fn); !fact.clean {
				pass.Reportf(c.pos, "%s is marked //pimvet:nopark but calls %s, which %s",
					m.Name.Name, c.fn.FullName(), fact.why)
			}
		}
	}
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

func noparkAllowed(pkgPath, name string) bool {
	return noparkPkgs[pkgPath] || noparkFuncs[pkgPath][name]
}

// scanParks is the nopark local rule: every channel operation and
// non-allowlisted stdlib call in one function body, plus the module
// calls to chase.
func scanParks(info *types.Info, fn *ast.FuncDecl) ([]violation, []calleeRef) {
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
			case isModulePath(path):
				callees = append(callees, calleeRef{f, e.Pos()})
			case !noparkAllowed(path, f.Name()):
				add(e.Pos(), "calls "+f.FullName()+", which is outside the non-parking allowlist")
			}
		}
		return true
	})
	return viols, callees
}
