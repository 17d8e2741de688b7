package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func TestBuildExcluded(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"no constraint", "package p\n", false},
		{"race tag", "//go:build race\n\npackage p\n", true},
		{"negated race tag", "//go:build !race\n\npackage p\n", false},
		{"host GOOS", "//go:build " + runtime.GOOS + "\n\npackage p\n", false},
		{"foreign GOOS", "//go:build plan9\n\npackage p\n", runtime.GOOS != "plan9"},
		{"or with satisfied arm", "//go:build race || " + runtime.GOOS + "\n\npackage p\n", false},
		{"and with excluded arm", "//go:build race && " + runtime.GOOS + "\n\npackage p\n", true},
		{"language version", "//go:build go1.18\n\npackage p\n", false},
		{"legacy plus-build alone is inert", "// +build race\n\npackage p\n", false},
		{"constraint after package clause is inert", "package p\n\n//go:build race\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := buildExcluded([]byte(tc.src)); got != tc.want {
				t.Errorf("buildExcluded(%q) = %v, want %v", tc.src, got, tc.want)
			}
		})
	}
}

// TestLoaderSkipsTagExcludedFiles builds a module where two files
// declare the same constant behind complementary build tags — exactly
// the internal/testenv race.go/norace.go pattern — and checks the
// loader keeps only the file the default build selects instead of
// type-checking a redeclaration error.
func TestLoaderSkipsTagExcludedFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tagged\n\ngo 1.21\n")
	write("on.go", "//go:build sometag\n\npackage tagged\n\nconst flag = true\n")
	write("off.go", "//go:build !sometag\n\npackage tagged\n\nconst flag = false\n")

	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Errors) > 0 {
		t.Fatalf("load errors (redeclaration means tags were ignored): %v", pkg.Errors)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (off.go only)", len(pkg.Files))
	}
	got := pkg.Fset.Position(pkg.Files[0].Pos()).Filename
	if filepath.Base(got) != "off.go" {
		t.Fatalf("loaded %s, want off.go", got)
	}
}

// TestExpandPatternsStopsAtNestedModule builds a module holding a
// nested module, the way the repository holds bench/: ./... must cover
// the outer module's packages and stop at the inner go.mod, as the go
// tool does.
func TestExpandPatternsStopsAtNestedModule(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module outer\n\ngo 1.21\n")
	write("a/a.go", "package a\n")
	write("inner/go.mod", "module inner\n\ngo 1.21\n")
	write("inner/b.go", "package inner\n")
	write("inner/c/c.go", "package c\n")

	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(root, "a")}; !reflect.DeepEqual(dirs, want) {
		t.Errorf("ExpandPatterns(./...) = %v, want %v", dirs, want)
	}
}
