package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimds/internal/analysis"
)

func loadFixture(t *testing.T, dir string) (*analysis.Loader, *analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Errors) > 0 {
		t.Fatalf("fixture errors: %v", pkg.Errors)
	}
	return loader, pkg
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.ExpandPatterns(loader.ModRoot, []string{"./internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("ExpandPatterns descended into %s", d)
		}
	}
	if len(dirs) < 3 {
		t.Errorf("expected at least analysis, analysistest and analyzers dirs, got %v", dirs)
	}
}

func TestLoaderResolvesIntraModuleImports(t *testing.T) {
	loader, pkg := loadFixture(t, filepath.Join("..", "sim"))
	if pkg.Types == nil || pkg.Types.Name() != "sim" {
		t.Fatalf("failed to type-check internal/sim: %+v", pkg)
	}
	// The sim package imports pimds/internal/model; the loader must
	// have resolved it through the module tree.
	found := false
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "pimds/internal/model" {
			found = true
		}
	}
	if !found {
		t.Error("pimds/internal/model not among sim's resolved imports")
	}
	if loader.ModPath != "pimds" {
		t.Errorf("ModPath = %q, want pimds", loader.ModPath)
	}
}
