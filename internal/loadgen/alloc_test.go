package loadgen

import (
	"testing"

	"pimds/internal/harness"
	"pimds/internal/obs"
	"pimds/internal/testenv"
	"pimds/internal/wire"
)

// These tests pin the //pimvet:allocfree annotations on the injector's
// inner loop: an allocation in op generation or response accounting is
// charged to every operation of every run and skews the allocs/op
// figure pimload prints.

func skipIfRace(t *testing.T) {
	t.Helper()
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
}

func TestOpStreamNextAllocs(t *testing.T) {
	skipIfRace(t)
	for _, structure := range []string{StructSet, StructQueue, StructStack} {
		t.Run(structure, func(t *testing.T) {
			cfg := Config{Structure: structure, Seed: 1}.withDefaults()
			st := newOpStream(cfg, 0)
			var sink wire.Op
			avg := testing.AllocsPerRun(1000, func() {
				sink = st.next()
			})
			if avg != 0 {
				t.Errorf("opStream.next(%s): %.1f allocs/op, want 0", structure, avg)
			}
			_ = sink
		})
	}
}

func TestTraceFrameAllocs(t *testing.T) {
	skipIfRace(t)
	cfg := Config{Structure: StructSet, Seed: 1, TraceSample: 0.5}.withDefaults()
	st := newOpStream(cfg, 0)
	var sampled int
	avg := testing.AllocsPerRun(1000, func() {
		if _, ok := st.traceFrame(); ok {
			sampled++
		}
	})
	if avg != 0 {
		t.Errorf("traceFrame: %.1f allocs/op, want 0", avg)
	}
	if sampled == 0 {
		t.Error("traceFrame never sampled at 50%")
	}
}

func TestCountersObserveAllocs(t *testing.T) {
	skipIfRace(t)
	var ctr counters
	lat := &obs.Histogram{}
	avg := testing.AllocsPerRun(1000, func() {
		ctr.observe(lat, 1500, 1000, wire.StatusOK)
	})
	if avg != 0 {
		t.Errorf("counters.observe: %.1f allocs/op, want 0", avg)
	}
}

// TestZipfDistRunsAllocFree covers the combination cmd/pimload actually
// ships under -dist zipf: the generator's cached Zipf source keeps the
// hot path allocation-free end to end.
func TestZipfDistRunsAllocFree(t *testing.T) {
	skipIfRace(t)
	cfg := Config{
		Structure: StructSet,
		Seed:      1,
		Dist:      harness.Zipf{N: 1 << 16, S: 1.2},
	}.withDefaults()
	st := newOpStream(cfg, 0)
	var sink wire.Op
	avg := testing.AllocsPerRun(1000, func() {
		sink = st.next()
	})
	if avg != 0 {
		t.Errorf("opStream.next(zipf): %.1f allocs/op, want 0", avg)
	}
	_ = sink
}
