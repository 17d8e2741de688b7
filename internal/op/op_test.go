package op

import (
	"testing"
	"unsafe"
)

// TestKindBytes pins the format the wire and every WAL segment carry:
// each kind's byte value, name and class, and each status byte. A
// reordered enum would silently re-label every committed WAL record and
// fuzz seed; this test names the cause where recovery and fuzz tests
// would only show the symptom.
func TestKindBytes(t *testing.T) {
	kinds := []struct {
		k         Kind
		b         uint8
		name      string
		mutating  bool
		orderedOp bool
	}{
		{Contains, 0, "contains", false, false},
		{Add, 1, "add", true, false},
		{Remove, 2, "remove", true, false},
		{Enqueue, 3, "enqueue", true, false},
		{Dequeue, 4, "dequeue", true, false},
		{Push, 5, "push", true, false},
		{Pop, 6, "pop", true, false},
		{RangeScan, 7, "scan", false, true},
		{Pred, 8, "pred", false, true},
		{Succ, 9, "succ", false, true},
		{PopMin, 10, "popmin", true, true},
		{PopMax, 11, "popmax", true, true},
	}
	if NumKinds != len(kinds) {
		t.Fatalf("NumKinds = %d, want %d", NumKinds, len(kinds))
	}
	for _, c := range kinds {
		if uint8(c.k) != c.b || c.k.String() != c.name || !c.k.Valid() ||
			c.k.Mutating() != c.mutating || c.k.Ordered() != c.orderedOp {
			t.Errorf("kind %q: byte %d, valid %v, mutating %v, ordered %v; want byte %d, valid, mutating %v, ordered %v",
				c.k, uint8(c.k), c.k.Valid(), c.k.Mutating(), c.k.Ordered(), c.b, c.mutating, c.orderedOp)
		}
	}
	if k := Kind(NumKinds); k.Valid() || k.Mutating() || k.Ordered() || k.String() != "OpKind(12)" {
		t.Errorf("Kind(%d) must be undefined, got %q", NumKinds, k)
	}
	for _, c := range []struct {
		s    Status
		b    uint8
		name string
	}{{StatusOK, 0, "ok"}, {StatusBadKind, 1, "bad-kind"}, {StatusBadKey, 2, "bad-key"}} {
		if uint8(c.s) != c.b || c.s.String() != c.name {
			t.Errorf("status %q: byte %d, want %d %q", c.s, uint8(c.s), c.b, c.name)
		}
	}
	if got := unsafe.Sizeof(Op{}); got != 32 {
		t.Errorf("sizeof(Op) = %d B, want 32 (reorder the fields back)", got)
	}
}
