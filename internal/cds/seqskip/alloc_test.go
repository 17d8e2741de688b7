package seqskip

import (
	"math/rand"
	"testing"

	"pimds/internal/cds/internal/slab"
	"pimds/internal/testenv"
)

// churnRound is one size-stable round over a list holding the even keys
// below 128: every even key removed and re-added (each insert lands
// before an existing node, so it counts towards the next re-layout),
// both extremes popped and re-added, and the reads that pay for
// re-layouts — lookups, neighbour queries and a capped scan into an
// arena that has reached its high-water mark.
func churnRound(l *List, arena []int64) []int64 {
	for k := int64(0); k < 128; k += 2 {
		l.RemoveKey(k)
		l.AddKey(k)
		l.ContainsKey(k + 1)
	}
	lo, _ := l.PopMinKey()
	hi, _ := l.PopMaxKey()
	l.AddKey(lo)
	l.AddKey(hi)
	l.PredKey(51)
	l.SuccKey(52)
	arena, _, _ = l.RangeScanInto(10, 90, 16, arena[:0])
	return arena
}

// TestSteadyStateAllocs pins the allocation-free contract: once the
// arenas, their spares and the free lists have grown to a size-stable
// workload, no entry point a combiner calls touches the heap, also on
// the calls that re-lay the list out. Each measured run applies rounds
// until one re-layout has fired, so an allocating re-layout shows.
func TestSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	l := New(1)
	for k := int64(0); k < 128; k += 2 {
		l.AddKey(k)
	}
	arena := make([]int64, 0, 16)
	relayoutOnce := func() {
		for start, n := l.relayouts, 0; l.relayouts == start; n++ {
			if n == 1000 {
				t.Fatal("no re-layout within 1000 rounds")
			}
			arena = churnRound(l, arena)
		}
	}
	// Warm-up: the first re-layout moves the preload out of its
	// chunks, later ones size the spares to the capacity reached.
	for i := 0; i < 8; i++ {
		relayoutOnce()
	}
	allocs := testenv.Allocs(20, relayoutOnce)
	if allocs != 0 {
		t.Errorf("steady state: %d allocs, want 0", allocs)
	}
	if got := l.Len(); got != 64 {
		t.Fatalf("list length %d after size-stable rounds, want 64", got)
	}
	if len(arena) != 16 || arena[0] != 10 {
		t.Fatalf("scan returned %v, want the 16 even keys from 10", arena)
	}
}

// TestWriteOnlyChurnBounded: with no reads, the read-paid rule never
// re-lays the list out, and per-height free lists strand nodes (a freed
// tall tower cannot host a short one) in a random walk. The growth
// rule compacts instead of growing a chunk while the free lists hold
// more than Len()/8 nodes, so the capacity reached (slab and chunks)
// never exceeds 9/8 of the high-water length plus one chunk, and the
// spare never exceeds it. A 1 k-key list strands enough within
// 10⁶ ops for the rule to fire; towers average two links.
func TestWriteOnlyChurnBounded(t *testing.T) {
	const keys = 1024
	rng := rand.New(rand.NewSource(1))
	l := New(1)
	for k := int64(0); k < 2*keys; k += 2 {
		l.AddKey(k)
	}
	hw := l.Len()
	for i := 0; i < 1_000_000; i++ {
		if k := rng.Int63n(2 * keys); rng.Intn(2) == 0 {
			l.AddKey(k)
		} else {
			l.RemoveKey(k)
		}
		hw = max(hw, l.Len())
		if i%1000 != 0 {
			continue
		}
		nodes, links := l.nodes.Held(), l.links.Held()
		bound := 2 * (hw + hw/strandLimit + slab.ChunkLen[node]())
		if nodes > bound || links > 3*bound {
			t.Fatalf("op %d: %d nodes and %d links of slab, chunk and spare capacity for %d keys (high water %d), want ≤ %d and ≤ %d",
				i, nodes, links, l.Len(), hw, bound, 3*bound)
		}
	}
	if l.compactions == 0 {
		t.Error("the growth rule never compacted")
	}
	if l.relayouts != l.compactions {
		t.Errorf("%d re-layouts without reads, want only the %d compactions", l.relayouts, l.compactions)
	}
}
