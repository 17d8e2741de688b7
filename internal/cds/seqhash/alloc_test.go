package seqhash

import (
	"testing"

	"pimds/internal/testenv"
)

// TestSteadyStateAllocs pins the allocation-free contract: once the
// arena and the bucket array have grown to a table's high-water mark,
// Put/Delete churn at a stable size recycles deleted chain entries and
// never touches the heap.
func TestSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	h := New(64)
	for k := int64(0); k < 1024; k += 2 {
		h.Put(k, k)
	}
	// Each round deletes every other key and puts them back in reverse
	// order under new values, so entries are reused in another order
	// than they were freed.
	round := func() {
		for k := int64(0); k < 1024; k += 4 {
			h.Delete(k)
		}
		for k := int64(1020); k >= 0; k -= 4 {
			h.Put(k, -k)
			h.Get(k + 2)
		}
	}
	allocs := testenv.Allocs(20, round)
	if allocs != 0 {
		t.Errorf("steady state: %d allocs, want 0", allocs)
	}
	if h.Len() != 512 {
		t.Fatalf("table length %d after size-stable rounds, want 512", h.Len())
	}
	for k := int64(0); k < 1024; k += 2 {
		if v, ok := h.Get(k); !ok || v != k && v != -k {
			t.Fatalf("Get(%d) = %d, %v after churn", k, v, ok)
		}
	}
}
