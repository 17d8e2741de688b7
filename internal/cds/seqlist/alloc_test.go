package seqlist_test

import (
	"testing"

	"pimds/internal/cds/seqlist"
	"pimds/internal/op"
	"pimds/internal/testenv"
)

// churnPairs returns same-key Remove→Add pairs over the even keys below
// 128. The pairs keep their batch order through the stable sort, so
// every insertion reuses the node its removal just freed; each one lands
// before an existing node, so it counts towards the next re-layout.
func churnPairs() []op.Op {
	var ops []op.Op
	for k := int64(0); k < 128; k += 2 {
		ops = append(ops,
			op.Op{Kind: op.Remove, Key: k},
			op.Op{Kind: op.Add, Key: k},
		)
	}
	return ops
}

// relayoutOnce applies batches until one re-layout has fired.
func relayoutOnce(t *testing.T, l *seqlist.List, apply func(*seqlist.List)) {
	t.Helper()
	for start, n := seqlist.Relayouts(l), 0; seqlist.Relayouts(l) == start; n++ {
		if n == 1000 {
			t.Fatal("no re-layout within 1000 batches")
		}
		apply(l)
	}
}

// pinZeroAllocs preloads the even keys below 128, warms the list, then
// requires 0 allocs over the measured runs, where each run applies
// batches until one re-layout has fired, so an allocating re-layout
// shows. Warm-up takes two re-layouts: the first copies the preload out
// of its chunk into a new slab, the second grows the spare (the old,
// empty slab) to match it.
func pinZeroAllocs(t *testing.T, name string, apply func(*seqlist.List)) {
	t.Helper()
	l := seqlist.New()
	for k := int64(0); k < 128; k += 2 {
		l.AddKey(k)
	}
	relayoutOnce(t, l, apply)
	relayoutOnce(t, l, apply)
	allocs := testenv.Allocs(20, func() { relayoutOnce(t, l, apply) })
	if allocs != 0 {
		t.Errorf("%s steady state: %d allocs, want 0", name, allocs)
	}
	if got := l.Len(); got != 64 {
		t.Fatalf("%s: list length %d after steady-state batches, want 64", name, got)
	}
}

// TestApplyBatchIntoSteadyStateAllocs pins ApplyBatchInto
// allocation-free: once the scratch has grown to the batch size
// and the slab and its spare to the list, a size-stable
// batch (every Remove paired with an Add) must not touch the heap, also
// on the passes that re-lay the list out.
func TestApplyBatchIntoSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	ops := churnPairs()
	results := make([]bool, len(ops))
	pinZeroAllocs(t, "ApplyBatchInto", func(l *seqlist.List) { l.ApplyBatchInto(ops, results) })
	for i, ok := range results {
		if !ok {
			t.Fatalf("op %d (%+v) unexpectedly failed", i, ops[i])
		}
	}
}

// TestApplyOrderedBatchIntoSteadyStateAllocs is the same pin for the
// ordered path: the churn pairs plus both pops (each re-added in the
// same batch), neighbour queries and a capped scan, against a scan
// arena that has reached its high-water mark.
func TestApplyOrderedBatchIntoSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	ops := append(churnPairs(),
		op.Op{Kind: op.PopMin},
		op.Op{Kind: op.PopMax},
		op.Op{Kind: op.Add, Key: 0},
		op.Op{Kind: op.Add, Key: 126},
		op.Op{Kind: op.Pred, Key: 51},
		op.Op{Kind: op.Succ, Key: 52},
		op.Op{Kind: op.RangeScan, Key: 10, Hi: 90, Limit: 16},
	)
	res := make([]op.Result, len(ops))
	arena := make([]int64, 0, 64)
	pinZeroAllocs(t, "ApplyOrderedBatchInto", func(l *seqlist.List) {
		arena = l.ApplyOrderedBatchInto(ops, res, arena[:0])
	})
	if r := res[len(ops)-1]; len(r.Values) != 16 || r.Value != 42 {
		t.Fatalf("scan returned %d keys, cursor %d; want 16 keys, cursor 42", len(r.Values), r.Value)
	}
}
