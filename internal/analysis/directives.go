package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// pimvet understands one directive, a function annotation written in
// the doc comment of a function declaration:
//
//	//pimvet:nopark note
//	    Declares that the function, and every module function it
//	    transitively calls, never parks its goroutine. Check
//	    enforces it. The note is free-form and optional.
//
// A comment recognized as a directive must begin with //pimvet: (no
// leading whitespace inside the comment), which keeps prose that merely
// cites a directive — like this block — inert. Any other verb after
// //pimvet: is malformed and reported, so a typo or a retired directive
// cannot silently check nothing.

// KindNoPark is the verb of the nopark mark.
const KindNoPark = "nopark"

// Directive is one parsed //pimvet: comment.
type Directive struct {
	Kind string // KindNoPark; "" when malformed
	Arg  string // the mark's note; for a malformed directive, its raw text
	Pos  token.Position
}

const directivePrefix = "//pimvet:"

// ParseDirectives extracts every pimvet directive from a file,
// malformed ones included (Kind "").
func ParseDirectives(fset *token.FileSet, file *ast.File) []Directive {
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			chunk := c.Text[len(directivePrefix):]
			d := Directive{Arg: chunk, Pos: fset.Position(c.Pos())}
			if f := strings.Fields(chunk); len(f) > 0 && f[0] == KindNoPark {
				d.Kind = KindNoPark
				d.Arg = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(chunk), KindNoPark))
			}
			out = append(out, d)
		}
	}
	return out
}
