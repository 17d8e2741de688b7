// Package analysis is a minimal static-analysis framework built on the
// standard library's go/parser, go/types and go/importer only (the repo
// is stdlib-only, so golang.org/x/tools/go/analysis is off limits).
//
// It exists for one purpose: two load-bearing invariants — the
// simulator's bit-for-bit determinism under a seed, and a flat-combining
// pass that never allocates or blocks — are not checkable by the Go
// compiler. The analyzers in internal/analysis/analyzers machine-check
// them on every change (TestRepoIsClean runs them over the whole tree);
// cmd/pimvet is the CLI driver.
//
// The framework mirrors x/tools' analysis API in miniature: an Analyzer
// holds a name, a doc string and a Run function; Run receives a Pass
// with the parsed files and full type information for one package and
// reports Diagnostics. Suppression is handled by the driver (see
// directives.go), not by individual analyzers.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //pimvet:allow directives.
	Name string

	// Doc is a one-paragraph description of the invariant the analyzer
	// guards.
	Doc string

	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Path is the package's logical import path: the module-relative
	// import path, unless a file carries a //pimvet:package override
	// (used by testdata fixtures to opt into path-scoped checks).
	Path string

	// Lookup resolves a module import path to its loaded package, for
	// analyzers that follow calls across package boundaries (allocfree).
	// It returns nil for paths outside the module and
	// is itself nil when the pass was built without a loader; callers
	// must treat both as "opaque callee".
	Lookup func(path string) *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportPosf records a diagnostic at an already-resolved position.
// Analyzers use it for findings anchored to parsed directives, whose
// positions are stored resolved.
func (p *Pass) ReportPosf(posn token.Position, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      posn,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way go vet does:
// path/file.go:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// SortDiagnostics orders diagnostics by file, line, column and analyzer
// so output is stable across runs.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
