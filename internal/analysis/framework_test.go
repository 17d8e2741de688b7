package analysis_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimds/internal/analysis"
)

// dummy reports every call to a function named bad.
var dummy = &analysis.Analyzer{
	Name: "dummy",
	Doc:  "reports calls to bad()",
	Run: func(pass *analysis.Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bad" {
					pass.Reportf(call.Pos(), "call to bad")
				}
				return true
			})
		}
	},
}

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

func TestSuppression(t *testing.T) {
	_, pkg := loadFixture(t, "testdata/src/suppress")
	// Unsuppressed: fires() and the wrong-analyzer directive. The
	// justification-less //pimvet:allow still suppresses its line; it
	// is reported as a finding of its own (TestSuppressionStrict).
	var calls []analysis.Diagnostic
	for _, d := range analysis.RunPackage(pkg, []*analysis.Analyzer{dummy}) {
		if d.Analyzer == "dummy" {
			calls = append(calls, d)
		}
	}
	if len(calls) != 2 {
		t.Fatalf("got %d dummy diagnostics, want 2: %v", len(calls), calls)
	}
	for i, line := range []int{8, 25} {
		if calls[i].Pos.Line != line || calls[i].Message != "call to bad" {
			t.Errorf("diagnostic %d = %s, want call to bad on line %d", i, calls[i], line)
		}
	}
}

// TestSuppressionStrict pins that an allow without a justification is
// always a finding.
func TestSuppressionStrict(t *testing.T) {
	_, pkg := loadFixture(t, "testdata/src/suppress")
	diags := analysis.RunPackage(pkg, []*analysis.Analyzer{dummy})
	var unjustified, calls int
	for _, d := range diags {
		switch {
		case d.Analyzer == "pimvet" && strings.Contains(d.Message, "suppression without justification"):
			unjustified++
		case d.Analyzer == "dummy":
			calls++
		default:
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	if unjustified != 1 {
		t.Errorf("got %d unjustified-suppression findings, want 1", unjustified)
	}
	if calls != 2 {
		t.Errorf("got %d dummy findings, want 2", calls)
	}
}

func TestFileLevelSuppression(t *testing.T) {
	_, pkg := loadFixture(t, "testdata/src/suppressfile")
	diags := analysis.RunPackage(pkg, []*analysis.Analyzer{dummy})
	if len(diags) != 0 {
		t.Fatalf("file-level allow should silence everything, got %v", diags)
	}
}

func TestPackageOverride(t *testing.T) {
	// The determinism fixture carries //pimvet:package; check the
	// loader surfaces it as the logical path while keeping the real
	// one.
	dir := filepath.Join("..", "analysis", "analyzers", "testdata", "src", "determinism")
	_, pkg := loadFixture(t, dir)
	if pkg.LogicalPath != "pimds/internal/core/fixture" {
		t.Errorf("LogicalPath = %q, want pimds/internal/core/fixture", pkg.LogicalPath)
	}
	if !strings.HasPrefix(pkg.Path, "pimds/internal/analysis/") {
		t.Errorf("Path = %q, want the real module-relative path", pkg.Path)
	}
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
