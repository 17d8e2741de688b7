package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// writeModule writes files (relative path → source) under a fresh
// directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// fileNames lists the base names of a package's loaded files.
func fileNames(p *Package) []string {
	var names []string
	for _, f := range p.Files {
		names = append(names, filepath.Base(p.Fset.Position(f.Pos()).Filename))
	}
	return names
}

// TestBuildExcluded checks that the loader type-checks exactly the
// files of the default build — host platform, gc, no extra tags —
// whatever flags the test binary itself was built with.
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
	}
	files := map[string]string{"go.mod": "module tagged\n\ngo 1.21\n"}
	for i, tc := range cases {
		files[string(rune('a'+i))+".go"] = tc.src
	}
	pkgs, err := Load(writeModule(t, files), ".")
	if err != nil {
		t.Fatal(err)
	}
	loaded := fileNames(pkgs[0])
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := !slices.Contains(loaded, string(rune('a'+i))+".go"); got != tc.want {
				t.Errorf("%q excluded = %v, want %v (loaded: %v)", tc.src, got, tc.want, loaded)
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
	dir := writeModule(t, map[string]string{
		"go.mod": "module tagged\n\ngo 1.21\n",
		"on.go":  "//go:build sometag\n\npackage tagged\n\nconst flag = true\n",
		"off.go": "//go:build !sometag\n\npackage tagged\n\nconst flag = false\n",
	})
	pkgs, err := Load(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	if got := fileNames(pkgs[0]); !reflect.DeepEqual(got, []string{"off.go"}) {
		t.Fatalf("loaded %v, want [off.go]", got)
	}
}

// TestExpandPatternsStopsAtNestedModule builds a module holding a
// nested module, the way the repository holds bench/: ./... must cover
// the outer module's packages and stop at the inner go.mod.
func TestExpandPatternsStopsAtNestedModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":       "module outer\n\ngo 1.21\n",
		"a/a.go":       "package a\n",
		"inner/go.mod": "module inner\n\ngo 1.21\n",
		"inner/b.go":   "package inner\n",
		"inner/c/c.go": "package c\n",
	})
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if want := []string{"outer/a"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("Load(./...) = %v, want %v", paths, want)
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	pkgs := repoPackages(t)
	for _, p := range pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("./... descended into %s", p.Path)
		}
	}
	if len(pkgs) < 10 {
		t.Errorf("./... found only %d packages", len(pkgs))
	}
}

// TestLoaderResolvesIntraModuleImports checks that a module import
// resolves to the package the loader type-checked from source, not to
// a second copy: the fact checker keys its verdicts by *types.Func.
func TestLoaderResolvesIntraModuleImports(t *testing.T) {
	byPath := make(map[string]*Package)
	for _, p := range repoPackages(t) {
		byPath[p.Path] = p
	}
	sim, model := byPath["pimds/internal/sim"], byPath["pimds/internal/model"]
	if sim == nil || model == nil {
		t.Fatal("pimds/internal/sim or pimds/internal/model not loaded")
	}
	for _, imp := range sim.Types.Imports() {
		if imp.Path() == model.Path {
			if imp != model.Types {
				t.Error("sim imports a different *types.Package for pimds/internal/model than the one loaded from source")
			}
			return
		}
	}
	t.Error("pimds/internal/model not among sim's resolved imports")
}
