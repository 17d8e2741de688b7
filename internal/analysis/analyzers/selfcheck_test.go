package analyzers_test

import (
	"os"
	"path/filepath"
	"testing"

	"pimds/internal/analysis"
	"pimds/internal/analysis/analyzers"
)

// TestRepoIsClean is the pimvet gate: every analyzer runs over every
// package of the module, and any finding — including a //pimvet:
// directive pimvet does not know — fails.
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
	// Sanity-check the expansion covered the packages that hold marks.
	want := map[string]bool{"server": true, "wire": true, "loadgen": true}
	for _, d := range dirs {
		delete(want, filepath.Base(d))
	}
	for missing := range want {
		t.Errorf("package %q not covered by ./... expansion", missing)
	}
}
