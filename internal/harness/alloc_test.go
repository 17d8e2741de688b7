package harness_test

import (
	"testing"

	"pimds/internal/harness"
	"pimds/internal/op"
	"pimds/internal/testenv"
)

// TestGeneratorNextAllocs pins Generator.Next allocation-free
// across the key distributions — in particular the Zipf
// path, whose source is cached at construction instead of being rebuilt
// (and allocated) per draw.
func TestGeneratorNextAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	dists := map[string]harness.KeyDist{
		"uniform": harness.Uniform{N: 1 << 16},
		"zipf":    harness.Zipf{N: 1 << 16, S: 1.2},
		"hot":     harness.HotRange{N: 1 << 16, HotPct: 90, FracPct: 10},
	}
	for name, dist := range dists {
		t.Run(name, func(t *testing.T) {
			g := harness.NewGenerator(1, dist, harness.Balanced())
			var sink op.Op
			allocs := testenv.Allocs(1000, func() {
				sink = g.Next()
			})
			if allocs != 0 {
				t.Errorf("Generator.Next(%s): %d allocs, want 0", name, allocs)
			}
			_ = sink
		})
	}
}

// TestZipfCachedStreamMatchesInterface verifies the cached Zipf source
// draws the exact key stream the stateless interface path would:
// rand.NewZipf consumes nothing from the rng at construction, so the
// two paths see identical randomness.
func TestZipfCachedStreamMatchesInterface(t *testing.T) {
	z := harness.Zipf{N: 1 << 12, S: 1.3}
	mix := harness.ReadMostly()
	a := harness.NewGenerator(42, z, mix)
	b := harness.NewGenerator(42, uncached{z}, mix)
	for i := 0; i < 4096; i++ {
		if ga, gb := a.Next(), b.Next(); ga != gb {
			t.Fatalf("op %d diverged: cached %+v, interface %+v", i, ga, gb)
		}
	}
}

// uncached hides the Zipf concrete type from NewGenerator's cache
// check, forcing the per-call interface path.
type uncached struct{ harness.Zipf }
