package analysis

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

var repo struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// repoPackages loads the whole module once for every test that needs it.
func repoPackages(t *testing.T) []*Package {
	t.Helper()
	repo.once.Do(func() { repo.pkgs, repo.err = Load("../..", "./...") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.pkgs
}

// TestRepoIsClean is the pimvet gate: nopark runs over every package of
// the module, and any finding — including a //pimvet: directive pimvet
// does not know — fails.
func TestRepoIsClean(t *testing.T) {
	pkgs := repoPackages(t)
	for _, d := range Check(pkgs) {
		t.Errorf("pimvet finding on the tree: %s", d)
	}
	// The load must cover the packages that hold marks.
	want := map[string]bool{"pimds/internal/server": true, "pimds/internal/wire": true, "pimds/internal/loadgen": true}
	for _, p := range pkgs {
		delete(want, p.Path)
	}
	for missing := range want {
		t.Errorf("package %q not covered by ./...", missing)
	}
}

var backquoted = regexp.MustCompile("`([^`]*)`")

// TestNoPark checks Check's findings on the fixture against its
// `// want` comments: each finding must match a backquoted regexp
// of a want on its line, and each want must match one finding.
func TestNoPark(t *testing.T) {
	const fixture = "testdata/nopark/nopark.go"
	pkgs, err := Load(".", "./testdata/nopark")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int][]*regexp.Regexp) // by line
	for i, line := range strings.Split(string(src), "\n") {
		if _, w, ok := strings.Cut(line, "// want "); ok {
			for _, m := range backquoted.FindAllStringSubmatch(w, -1) {
				wants[i+1] = append(wants[i+1], regexp.MustCompile(m[1]))
			}
			if len(wants[i+1]) == 0 {
				t.Fatalf("%s:%d: want comment with no backquoted pattern", fixture, i+1)
			}
		}
	}
	for _, d := range Check(pkgs) {
		ws := wants[d.Pos.Line]
		i := slices.IndexFunc(ws, func(re *regexp.Regexp) bool { return re.MatchString(d.Message) })
		if i < 0 {
			t.Errorf("unexpected finding: %s", d)
			continue
		}
		wants[d.Pos.Line] = slices.Delete(ws, i, i+1)
	}
	for line, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: expected a finding matching %q, got none", fixture, line, w)
		}
	}
}
