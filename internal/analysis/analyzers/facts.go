package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"pimds/internal/analysis"
)

// Transitive checking across package boundaries for nopark. Starting
// from a marked root, every module function it reaches is scanned with
// the local rule; the first violation poisons the whole call chain, and
// the chain is reported at the root's call site so the finding lands in
// the package under analysis.

// modulePath is the enclosing module's import-path prefix; calls into
// it are followed, everything else is judged by the stdlib allowlist.
const modulePath = "pimds"

func isModulePath(p string) bool {
	return p == modulePath || strings.HasPrefix(p, modulePath+"/")
}

// violation is one breach of the local rule inside a function body.
type violation struct {
	pos token.Pos
	msg string
}

// calleeRef is a resolved call with its site, so cross-package findings
// can be reported where the analyzed package makes the call.
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
	lookup  func(string) *analysis.Package
	facts   map[*types.Func]*funcFact
	indexes map[*analysis.Package]map[*types.Func]*ast.FuncDecl
}

func newFactChecker(lookup func(string) *analysis.Package) *factChecker {
	return &factChecker{
		lookup:  lookup,
		facts:   make(map[*types.Func]*funcFact),
		indexes: make(map[*analysis.Package]map[*types.Func]*ast.FuncDecl),
	}
}

// check returns the fact for f, computing and memoizing it on first
// use. Functions without available syntax (loader absent, load failure,
// interface methods) are clean by fiat: the caller's allowlist decides
// what to do with opaque callees before asking for facts.
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

	if f.Pkg() == nil || fc.lookup == nil {
		return fact
	}
	pkg := fc.lookup(f.Pkg().Path())
	if pkg == nil {
		return fact
	}
	decl, ok := fc.index(pkg)[f]
	if !ok {
		return fact // no body here: interface method or external decl
	}
	viols, callees := scanParks(pkg.Info, decl)
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
func (fc *factChecker) index(pkg *analysis.Package) map[*types.Func]*ast.FuncDecl {
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

// markedFuncs returns the function declarations annotated with
// //pimvet:nopark. The directive must sit inside the declaration's doc
// comment (a comment block immediately above the func line); marks
// attached to nothing are returned separately so the analyzer can
// surface the typo instead of silently ignoring it.
func markedFuncs(pass *analysis.Pass) (marked []*ast.FuncDecl, stray []analysis.Directive) {
	for _, file := range pass.Files {
		var marks []analysis.Directive
		for _, d := range analysis.ParseDirectives(pass.Fset, file) {
			if d.Kind == analysis.KindNoPark {
				marks = append(marks, d)
			}
		}
		if len(marks) == 0 {
			continue
		}
		used := make([]bool, len(marks))
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Doc == nil {
				continue
			}
			lo := pass.Fset.Position(fd.Doc.Pos()).Line
			hi := pass.Fset.Position(fd.Pos()).Line - 1
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
				stray = append(stray, d)
			}
		}
	}
	return marked, stray
}
