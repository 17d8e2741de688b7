package loadgen

import (
	"testing"

	"pimds/internal/harness"
	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/testenv"
)

// These tests pin the injector's inner loop allocation-free: an allocation in op generation or response accounting is
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
			var sink op.Op
			allocs := testenv.Allocs(1000, func() {
				sink = st.next()
			})
			if allocs != 0 {
				t.Errorf("opStream.next(%s): %d allocs, want 0", structure, allocs)
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
	allocs := testenv.Allocs(1000, func() {
		if _, ok := st.traceFrame(); ok {
			sampled++
		}
	})
	if allocs != 0 {
		t.Errorf("traceFrame: %d allocs, want 0", allocs)
	}
	if sampled == 0 {
		t.Error("traceFrame never sampled at 50%")
	}
}

func TestCountersObserveAllocs(t *testing.T) {
	skipIfRace(t)
	var ctr counters
	lat := &obs.Histogram{}
	allocs := testenv.Allocs(1000, func() {
		ctr.observe(lat, 1500, 1000, op.StatusOK)
	})
	if allocs != 0 {
		t.Errorf("counters.observe: %d allocs, want 0", allocs)
	}
}

func TestObserveScanAllocs(t *testing.T) {
	skipIfRace(t)
	var ctr counters
	allocs := testenv.Allocs(1000, func() {
		ctr.observeScan(16)
	})
	if allocs != 0 {
		t.Errorf("counters.observeScan: %d allocs, want 0", allocs)
	}
	if ctr.scans.Load() == 0 || ctr.scanKeys.Load() != 16*ctr.scans.Load() {
		t.Errorf("observeScan tallied %d scans, %d keys", ctr.scans.Load(), ctr.scanKeys.Load())
	}
}

// TestAppendRequestAllocs pins the per-frame request encode, traced
// frames included, into a buffer already grown to one frame.
func TestAppendRequestAllocs(t *testing.T) {
	skipIfRace(t)
	cfg := Config{Structure: StructSet, Seed: 1, TraceSample: 0.5}.withDefaults()
	st := newOpStream(cfg, 0)
	batch := make([]op.Op, 16)
	for i := range batch {
		batch[i] = st.next()
	}
	var ctr counters
	out := make([]byte, 0, 1<<10)
	var err error
	allocs := testenv.Allocs(1000, func() {
		out, err = st.appendRequest(out[:0], batch, &ctr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("opStream.appendRequest: %d allocs, want 0", allocs)
	}
	if ctr.traced.Load() == 0 {
		t.Error("appendRequest never traced a frame at 50%")
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
	var sink op.Op
	allocs := testenv.Allocs(1000, func() {
		sink = st.next()
	})
	if allocs != 0 {
		t.Errorf("opStream.next(zipf): %d allocs, want 0", allocs)
	}
	_ = sink
}
