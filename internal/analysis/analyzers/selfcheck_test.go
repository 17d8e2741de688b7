package analyzers_test

import (
	"os"
	"path/filepath"
	"testing"

	"pimds/internal/analysis"
	"pimds/internal/analysis/analyzers"
)

// TestRepoIsClean is the pimvet gate: `pimvet ./...` must be clean on
// the repository itself. Every analyzer runs over every package; any
// finding — including an unjustified //pimvet:allow or a directive
// pimvet does not know — fails.
func TestRepoIsClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.ExpandPatterns(loader.ModRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("pattern expansion found only %d package dirs under %s; expansion is broken", len(dirs), loader.ModRoot)
	}
	diags, err := analysis.Run(loader, dirs, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("pimvet finding on the tree: %s", d)
	}
	// Sanity-check the expansion covered the load-bearing packages.
	want := map[string]bool{"sim": true, "pimhash": true, "harness": true}
	for _, d := range dirs {
		delete(want, filepath.Base(d))
	}
	for missing := range want {
		t.Errorf("package %q not covered by ./... expansion", missing)
	}
}
