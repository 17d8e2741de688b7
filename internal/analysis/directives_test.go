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
	return ParseDirectives(fset, f)
}

func TestParseDirectives(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []Directive
	}{
		{
			name: "mark with note",
			src:  "package p\n\n//pimvet:nopark combiner window\nfunc f() {}\n",
			want: []Directive{{Kind: "nopark", Arg: "combiner window"}},
		},
		{
			name: "mark with tab before note",
			src:  "package p\n\n//pimvet:nopark\tcombiner window\nfunc f() {}\n",
			want: []Directive{{Kind: "nopark", Arg: "combiner window"}},
		},
		{
			name: "unknown verb is malformed",
			src:  "package p\n\n//pimvet:alow determinism: typo\nvar x int\n",
			want: []Directive{{Kind: "", Arg: "alow determinism: typo"}},
		},
		{
			name: "retired allocfree mark is malformed",
			src:  "package p\n\n//pimvet:allocfree\nfunc f() {}\n",
			want: []Directive{{Kind: "", Arg: "allocfree"}},
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
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := parseSrc(t, tt.src)
			if len(got) != len(tt.want) {
				t.Fatalf("got %d directives %+v, want %d", len(got), got, len(tt.want))
			}
			for i := range got {
				g := got[i]
				g.Pos = token.Position{} // position is not under test
				if !reflect.DeepEqual(g, tt.want[i]) {
					t.Errorf("directive %d = %+v, want %+v", i, g, tt.want[i])
				}
			}
		})
	}
}
