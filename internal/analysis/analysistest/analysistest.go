// Package analysistest runs analyzers over testdata fixture packages
// and checks their diagnostics against // want "regexp" comments, in
// the style of golang.org/x/tools/go/analysis/analysistest but
// stdlib-only.
//
// A fixture line expecting diagnostics carries one or more quoted
// regular expressions:
//
//	x := rand.Int() // want `global math/rand\.Int`
//	f(a, b)         // want "first finding" "second finding"
//
// Every diagnostic must match a want on its line and every want must
// be matched by a diagnostic; anything unmatched fails the test.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pimds/internal/analysis"
)

// expectation is one want clause.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)
var quoteRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads the package in fixtureDir, applies the analyzer and
// verifies its diagnostics against the fixture's want comments.
func Run(t *testing.T, fixtureDir string, a *analysis.Analyzer) {
	t.Helper()
	diags := diagnostics(t, fixtureDir, a)

	var wants []*expectation
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(fixtureDir, e.Name())
		ws, err := parseWants(path)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, ws...)
	}

	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// diagnostics loads the fixture package and returns the analyzer's
// diagnostics, failing the test on load or type errors.
func diagnostics(t *testing.T, fixtureDir string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	loader, err := analysis.NewLoader(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.Errors {
		t.Errorf("fixture error: %v", e)
	}
	if t.Failed() {
		t.FailNow()
	}
	diags := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
	analysis.SortDiagnostics(diags)
	return diags
}

// parseWants extracts want expectations from one fixture file.
func parseWants(path string) ([]*expectation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, err
	}
	var out []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		quoted := quoteRE.FindAllString(m[1], -1)
		if len(quoted) == 0 {
			return nil, fmt.Errorf("%s:%d: want comment with no quoted pattern", path, i+1)
		}
		for _, q := range quoted {
			var pat string
			if strings.HasPrefix(q, "`") {
				pat = strings.Trim(q, "`")
			} else {
				pat, err = strconv.Unquote(q)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", path, i+1, q, err)
				}
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", path, i+1, pat, err)
			}
			out = append(out, &expectation{file: abs, line: i + 1, pattern: re})
		}
	}
	return out, nil
}
