package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives are magic comments understood by pimvet:
//
//	//pimvet:allow analyzer1,analyzer2: justification
//	    Suppresses diagnostics from the listed analyzers on the same
//	    line or the immediately following line. The justification (text
//	    after the colon) is required: an allow without one is itself a
//	    finding.
//
//	//pimvet:allow-file analyzer1,analyzer2: justification
//	    Suppresses the listed analyzers for the whole file.
//
//	//pimvet:package import/path
//	    Overrides the package's logical import path. Used by testdata
//	    fixtures so the determinism analyzer's simulator scope
//	    (pimds/internal/sim, pimds/internal/core/...) covers the
//	    fixture.
//
//	//pimvet:allocfree note
//	    Function annotation, written in the doc comment of a function
//	    declaration. It declares the hot-path contract — no heap
//	    allocation and no blocking, transitively through module calls —
//	    that the allocfree analyzer enforces. The note is free-form and
//	    optional.
//
// The analyzer list may be "all" to cover every analyzer. A comment
// recognized as a directive must begin with //pimvet: (no leading
// whitespace inside the comment), which keeps prose that merely cites a
// directive — like this block — inert. Within one directive comment,
// each further occurrence of //pimvet: starts a new directive, so
// several can share a line. The verb is separated from its payload by
// any run of spaces or tabs.

// Directive kinds.
const (
	KindAllow     = "allow"
	KindAllowFile = "allow-file"
	KindPackage   = "package"
	KindAllocFree = "allocfree"
)

// Directive is one parsed //pimvet: comment.
type Directive struct {
	Kind          string // one of the Kind constants; "" when malformed
	Analyzers     []string
	Justification string
	Arg           string // "package": the override path; marks: the note; malformed: raw text
	Pos           token.Position
}

// Matches reports whether the directive covers the named analyzer.
func (d *Directive) Matches(analyzer string) bool {
	for _, a := range d.Analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

const directivePrefix = "//pimvet:"

// ParseDirectives extracts all pimvet directives from a file, malformed
// ones included (Kind ""). Analyzers use it to locate function
// annotations; suppression directives are consumed by the driver.
func ParseDirectives(fset *token.FileSet, file *ast.File) []Directive {
	return parseDirectives(fset, file)
}

// parseDirectives extracts all pimvet directives from a file. Malformed
// directives (an unknown verb after //pimvet:, or a known verb missing
// its required payload) are returned with Kind "" so the driver can
// surface them instead of silently ignoring a suppression the author
// believed was active.
func parseDirectives(fset *token.FileSet, file *ast.File) []Directive {
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			// One comment may carry several directives; each occurrence
			// of the prefix starts a new one.
			text := c.Text
			for start := 0; start < len(text); {
				next := strings.Index(text[start+len(directivePrefix):], directivePrefix)
				end := len(text)
				if next >= 0 {
					end = start + len(directivePrefix) + next
				}
				chunk := text[start+len(directivePrefix) : end]
				pos := fset.Position(c.Pos() + token.Pos(start))
				out = append(out, parseOne(chunk, pos))
				start = end
			}
		}
	}
	return out
}

// parseOne parses the text after one //pimvet: prefix. The verb runs up
// to the first space or tab (so tab-separated payloads parse the same
// as space-separated ones).
func parseOne(chunk string, pos token.Position) Directive {
	d := Directive{Pos: pos}
	malformed := func() Directive {
		d.Kind = ""
		d.Analyzers = nil
		d.Justification = ""
		d.Arg = chunk
		return d
	}
	s := strings.TrimSpace(chunk)
	verb, rest := s, ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		verb, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	switch verb {
	case KindPackage:
		d.Kind = KindPackage
		d.Arg = rest
		if rest == "" {
			return malformed()
		}
	case KindAllow, KindAllowFile:
		d.Kind = verb
		parseAllow(&d, rest)
		if len(d.Analyzers) == 0 {
			return malformed()
		}
	case KindAllocFree:
		d.Kind = verb
		d.Arg = rest // optional free-form note
	default:
		return malformed()
	}
	return d
}

// parseAllow splits "analyzer1,analyzer2: justification".
func parseAllow(d *Directive, s string) {
	names := s
	if i := strings.Index(s, ":"); i >= 0 {
		names = s[:i]
		d.Justification = strings.TrimSpace(s[i+1:])
	}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			d.Analyzers = append(d.Analyzers, n)
		}
	}
}

// fileDirectives groups a file's directives for fast suppression
// lookups.
type fileDirectives struct {
	fileAllows  []Directive
	lineAllows  map[int][]Directive // keyed by source line of the comment
	malformed   []Directive
	unjustified []Directive // allows with no text after the colon
}

func buildFileDirectives(fset *token.FileSet, file *ast.File) fileDirectives {
	fd := fileDirectives{lineAllows: make(map[int][]Directive)}
	for _, d := range parseDirectives(fset, file) {
		if (d.Kind == KindAllow || d.Kind == KindAllowFile) && d.Justification == "" {
			fd.unjustified = append(fd.unjustified, d)
		}
		switch d.Kind {
		case KindAllow:
			fd.lineAllows[d.Pos.Line] = append(fd.lineAllows[d.Pos.Line], d)
		case KindAllowFile:
			fd.fileAllows = append(fd.fileAllows, d)
		case KindPackage, KindAllocFree:
			// package: handled at load time. allocfree: a function
			// annotation, consumed by the analyzer through
			// ParseDirectives.
		default:
			fd.malformed = append(fd.malformed, d)
		}
	}
	return fd
}

// suppressors returns the directives that suppress a diagnostic from
// analyzer at line: file-level allows plus line allows on the same line
// or the line directly above.
func (fd *fileDirectives) suppressors(analyzer string, line int) []Directive {
	var out []Directive
	for _, d := range fd.fileAllows {
		if d.Matches(analyzer) {
			out = append(out, d)
		}
	}
	for _, l := range [2]int{line, line - 1} {
		for _, d := range fd.lineAllows[l] {
			if d.Matches(analyzer) {
				out = append(out, d)
			}
		}
	}
	return out
}

// packageOverride returns the //pimvet:package override declared in any
// of the files, or "".
func packageOverride(fset *token.FileSet, files []*ast.File) string {
	for _, f := range files {
		for _, d := range parseDirectives(fset, f) {
			if d.Kind == KindPackage && d.Arg != "" {
				return d.Arg
			}
		}
	}
	return ""
}
