package fclist

import (
	"testing"

	"pimds/internal/testenv"
)

// TestHandleOpsAllocs pins a Handle's operations allocation-free on a
// warm list, in both variants: a request and its result travel through
// the publication record unboxed, as in the lazy-list and lock-free
// baselines the FC list is measured against.
func TestHandleOpsAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	for _, combining := range []bool{false, true} {
		l := New(combining)
		h := l.NewHandle()
		for k := int64(0); k < 64; k += 2 {
			h.Add(k)
		}
		var ok bool
		allocs := testenv.Allocs(200, func() {
			ok = h.Contains(10) && h.Add(11) && h.Remove(11)
		})
		if !ok {
			t.Fatalf("combining=%v: Contains/Add/Remove answered wrong", combining)
		}
		if allocs != 0 {
			t.Errorf("combining=%v: %d allocs over 200 Contains+Add+Remove, want 0", combining, allocs)
		}
	}
}
