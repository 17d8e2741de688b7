package analyzers_test

import (
	"testing"

	"pimds/internal/analysis/analysistest"
	"pimds/internal/analysis/analyzers"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/src/determinism", analyzers.Determinism)
}

// TestDeterminismOutOfScope checks that the sim-scoped rules (map-range
// mutation, goroutines) stay quiet for packages outside the simulator
// tree: the same fixture loaded without its //pimvet:package override
// would be out of scope, which we emulate by scoping assertions to the
// wall-clock/RNG checks that fire everywhere. The host harness relies
// on this split: its goroutines are legitimate.
func TestDeterminismScopes(t *testing.T) {
	diags := analysistest.Diagnostics(t, "testdata/src/determinism", analyzers.Determinism)
	sawGoroutine := false
	for _, d := range diags {
		if d.Analyzer != "determinism" {
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
		if containsStr(d.Message, "goroutine spawned") {
			sawGoroutine = true
		}
	}
	if !sawGoroutine {
		t.Error("expected the scoped goroutine check to fire under the //pimvet:package override")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
