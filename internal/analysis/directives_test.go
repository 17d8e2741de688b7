package analysis

import (
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// parseSrc runs the directive parser over a one-package source snippet.
func parseSrc(t *testing.T, src string) []Directive {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return parseDirectives(fset, f)
}

func TestParseDirectives(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []Directive
	}{
		{
			name: "basic allow",
			src:  "package p\n\n//pimvet:allow determinism: seeded rng\nvar x int\n",
			want: []Directive{{Kind: "allow", Analyzers: []string{"determinism"}, Justification: "seeded rng"}},
		},
		{
			name: "tab between verb and list",
			src:  "package p\n\n//pimvet:allow\tdeterminism,allocfree: reason\nvar x int\n",
			want: []Directive{{Kind: "allow", Analyzers: []string{"determinism", "allocfree"}, Justification: "reason"}},
		},
		{
			name: "tabs and spaces inside list",
			src:  "package p\n\n//pimvet:allow \t determinism ,\tallocfree : reason text\nvar x int\n",
			want: []Directive{{Kind: "allow", Analyzers: []string{"determinism", "allocfree"}, Justification: "reason text"}},
		},
		{
			name: "trailing comment stays in justification",
			src:  "package p\n\n//pimvet:allow allocfree: snapshot path -- see DESIGN.md §4\nvar x int\n",
			want: []Directive{{Kind: "allow", Analyzers: []string{"allocfree"}, Justification: "snapshot path -- see DESIGN.md §4"}},
		},
		{
			name: "multiple directives on one line",
			src:  "package p\n\n//pimvet:allocfree combiner apply //pimvet:allow determinism: pass timing\nfunc f() {}\n",
			want: []Directive{
				{Kind: "allocfree", Arg: "combiner apply"},
				{Kind: "allow", Analyzers: []string{"determinism"}, Justification: "pass timing"},
			},
		},
		{
			name: "allow-file",
			src:  "package p\n\n//pimvet:allow-file dummy: whole file exempt\nvar x int\n",
			want: []Directive{{Kind: "allow-file", Analyzers: []string{"dummy"}, Justification: "whole file exempt"}},
		},
		{
			name: "package override",
			src:  "package p\n\n//pimvet:package pimds/internal/core/fixture\nvar x int\n",
			want: []Directive{{Kind: "package", Arg: "pimds/internal/core/fixture"}},
		},
		{
			name: "package override with tab",
			src:  "package p\n\n//pimvet:package\tpimds/internal/sim\nvar x int\n",
			want: []Directive{{Kind: "package", Arg: "pimds/internal/sim"}},
		},
		{
			name: "mark with note",
			src:  "package p\n\n//pimvet:allocfree wire fast path\nfunc f() {}\n",
			want: []Directive{{Kind: "allocfree", Arg: "wire fast path"}},
		},
		{
			name: "unknown verb is malformed",
			src:  "package p\n\n//pimvet:alow determinism: typo\nvar x int\n",
			want: []Directive{{Kind: "", Arg: "alow determinism: typo"}},
		},
		{
			name: "allow without analyzers is malformed",
			src:  "package p\n\n//pimvet:allow : no names\nvar x int\n",
			want: []Directive{{Kind: "", Arg: "allow : no names"}},
		},
		{
			name: "package without path is malformed",
			src:  "package p\n\n//pimvet:package\nvar x int\n",
			want: []Directive{{Kind: "", Arg: "package"}},
		},
		{
			name: "empty directive is malformed",
			src:  "package p\n\n//pimvet:\nvar x int\n",
			want: []Directive{{Kind: "", Arg: ""}},
		},
		{
			name: "prose citing a directive is inert",
			src:  "package p\n\n// use //pimvet:allow determinism: ... to suppress\nvar x int\n",
			want: nil,
		},
		{
			name: "mixed kinds on one line",
			src:  "package p\n\n//pimvet:allow dummy: a //pimvet:allow-file other: b\nvar x int\n",
			want: []Directive{
				{Kind: "allow", Analyzers: []string{"dummy"}, Justification: "a"},
				{Kind: "allow-file", Analyzers: []string{"other"}, Justification: "b"},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := parseSrc(t, tt.src)
			if len(got) != len(tt.want) {
				t.Fatalf("got %d directives %+v, want %d", len(got), got, len(tt.want))
			}
			for i := range got {
				g := got[i]
				g.Pos = token.Position{} // position is covered separately
				if !reflect.DeepEqual(g, tt.want[i]) {
					t.Errorf("directive %d = %+v, want %+v", i, g, tt.want[i])
				}
			}
		})
	}
}

// TestMultiDirectivePositions pins that directives sharing a comment get
// distinct positions on the same line, so line-scoped suppression works
// for each of them.
func TestMultiDirectivePositions(t *testing.T) {
	ds := parseSrc(t, "package p\n\n//pimvet:allow a: x //pimvet:allow b: y\nvar v int\n")
	if len(ds) != 2 {
		t.Fatalf("got %d directives, want 2", len(ds))
	}
	if ds[0].Pos.Line != 3 || ds[1].Pos.Line != 3 {
		t.Errorf("lines = %d, %d; want both 3", ds[0].Pos.Line, ds[1].Pos.Line)
	}
	if ds[0].Pos.Column >= ds[1].Pos.Column {
		t.Errorf("columns = %d, %d; want strictly increasing", ds[0].Pos.Column, ds[1].Pos.Column)
	}
}

// TestSuppressorRanges pins the line scoping: an allow suppresses on its
// own line and the line directly below, nothing else.
func TestSuppressorRanges(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", `package p

//pimvet:allow dummy: above
var a int

var b int //pimvet:allow dummy: same line

//pimvet:allow-file other: everywhere
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	fd := buildFileDirectives(fset, f)
	for line, want := range map[int]int{3: 1, 4: 1, 5: 0, 6: 1, 7: 1} {
		if got := len(fd.suppressors("dummy", line)); got != want {
			t.Errorf("suppressors(dummy, line %d) = %d, want %d", line, got, want)
		}
	}
	if got := len(fd.suppressors("other", 1)); got != 1 {
		t.Errorf("file-level allow not visible on arbitrary line: got %d, want 1", got)
	}
	if got := len(fd.malformed); got != 0 {
		t.Errorf("unexpected malformed directives: %d", got)
	}
}
