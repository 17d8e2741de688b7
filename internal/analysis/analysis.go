// Package analysis is a minimal static-analysis framework built on the
// standard library's go/parser, go/types and go/importer only (the repo
// is stdlib-only, so golang.org/x/tools/go/analysis is off limits).
//
// It exists for one invariant no runtime test checks: the combining
// window never parks its goroutine, so one stalled combiner cannot park
// every connection that hashes to its shard. The nopark analyzer in
// internal/analysis/analyzers checks it, and TestRepoIsClean runs it
// over the whole tree inside `go test ./...`.
//
// The framework mirrors x/tools' analysis API in miniature: an Analyzer
// holds a name, a doc string and a Run function; Run receives a Pass
// with the parsed files and full type information for one package and
// reports Diagnostics.
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
	// Name is the analyzer's identifier, used in diagnostics.
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
	TypesInfo *types.Info

	// Lookup resolves a module import path to its loaded package, for
	// analyzers that follow calls across package boundaries (nopark).
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
