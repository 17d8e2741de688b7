package seqskip

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pimds/internal/op"
)

// oracle is the set as a sorted slice.
type oracle struct{ keys []int64 }

// at returns the position of the first key ≥ k and whether it is k.
func (o *oracle) at(k int64) (int, bool) { return slices.BinarySearch(o.keys, k) }

func (o *oracle) apply(x op.Op) bool {
	i, found := o.at(x.Key)
	switch x.Kind {
	case op.Contains:
		return found
	case op.Add:
		if !found {
			o.keys = slices.Insert(o.keys, i, x.Key)
		}
		return !found
	case op.Remove:
		if found {
			o.keys = slices.Delete(o.keys, i, i+1)
		}
		return found
	}
	return false
}

// batch applies ops in ascending key order, ties in batch order.
func (o *oracle) batch(ops []op.Op) []bool {
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].Key < ops[idx[b]].Key })
	res := make([]bool, len(ops))
	for _, i := range idx {
		res[i] = o.apply(ops[i])
	}
	return res
}

// key returns keys[i] when i is in range.
func (o *oracle) key(i int) (int64, bool) {
	if i < 0 || i >= len(o.keys) {
		return 0, false
	}
	return o.keys[i], true
}

func (o *oracle) scan(lo, hi int64, limit int) ([]int64, int64) {
	var got []int64
	if lo >= hi {
		return got, hi
	}
	i, _ := o.at(lo)
	for ; i < len(o.keys) && o.keys[i] < hi; i++ {
		if limit > 0 && len(got) == limit {
			return got, o.keys[i]
		}
		got = append(got, o.keys[i])
	}
	return got, hi
}

// heights returns the tower heights in key order.
func heights(l *List) []int {
	var hs []int
	for n := l.head.next[0]; n != nil; n = n.next[0] {
		hs = append(hs, len(n.next))
	}
	return hs
}

// checkLevels asserts that every level's links are sorted by key and
// only pass through towers that reach the level, and that no level at
// or above the height holds a node.
func checkLevels(t *testing.T, l *List, step int) {
	t.Helper()
	for lvl := 0; lvl < MaxHeight; lvl++ {
		prev := l.head
		for n := l.head.next[lvl]; n != nil; n = n.next[lvl] {
			if lvl >= l.height || len(n.next) <= lvl || n.key <= prev.key && prev != l.head {
				t.Fatalf("step %d: level %d links key %d after key %d (tower %d, height %d)",
					step, lvl, n.key, prev.key, len(n.next), l.height)
			}
			prev = n
		}
	}
}

// checkSlab asserts what a re-layout promises: the bottom level sits at
// consecutive slab addresses, and the towers, in key order, are carved
// back to back from the start of the link slab.
func checkSlab(t *testing.T, l *List, step int) {
	t.Helper()
	i, j := 0, 0
	for n := l.head.next[0]; n != nil; n = n.next[0] {
		if n != &l.nodes.Slab()[i] {
			t.Fatalf("step %d: after a re-layout, node %d in key order is not slab node %d", step, i, i)
		}
		if &n.next[0] != &l.links.Slab()[j] {
			t.Fatalf("step %d: after a re-layout, tower %d does not start at link %d", step, i, j)
		}
		i++
		j += len(n.next)
	}
}

// TestDifferentialAgainstSortedSlice drives a long seeded history
// through every entry point while the list grows, shrinks and churns,
// with and without reads, across many re-layouts and compactions.
// Every result, the contents and the length must match a sorted-slice
// oracle after every call, and Steps must match a twin built from the
// same seed that never re-lays out. After every re-layout the tower
// heights in key order must equal the twin's and every level must be
// sorted; after one that ended its call, the list must sit in slab
// order.
func TestDifferentialAgainstSortedSlice(t *testing.T) {
	const (
		keySpace = 256
		steps    = 50000
	)
	rng := rand.New(rand.NewSource(7))
	l, twin, o := New(5), New(5), &oracle{}
	twin.pinned = true
	key := func() int64 { return rng.Int63n(keySpace) }
	// Each phase sets how many calls write and how many writes add,
	// so the list grows, shrinks, and churns both write-only and
	// read-heavy.
	var writePct, addPct int
	relayouts, compactions, checked := 0, 0, 0
	for step := 0; step < steps; step++ {
		if step%2500 == 0 {
			ph := [][2]int{{100, 80}, {100, 10}, {100, 90}, {30, 50}, {100, 20}, {100, 85}, {50, 30}, {20, 50}}[step/2500%8]
			writePct, addPct = ph[0], ph[1]
		}
		writeKind := func() op.Kind {
			if rng.Intn(100) < addPct {
				return op.Add
			}
			return op.Remove
		}
		// Stranding enough free nodes to compact takes far longer
		// than this history, so spend the tails from time to time
		// while the free lists hold more than the growth rule allows:
		// the next insert that finds no free node of its height then
		// compacts, inside whichever entry point it is.
		if step%200 == 0 && l.nfree > l.size/strandLimit {
			for l.nodes.Fits(1) {
				l.nodes.Take(1)
			}
			for l.links.Fits(1) {
				l.links.Take(1)
			}
		}
		write := rng.Intn(100) < writePct
		var got, want any
		switch r := rng.Intn(100); {
		case write && r < 10: // batch
			ops := make([]op.Op, 1+rng.Intn(40))
			for i := range ops {
				ops[i] = op.Op{Kind: op.Contains, Key: key()}
				if rng.Intn(100) < writePct {
					ops[i].Kind = writeKind()
				}
			}
			got, want = l.ApplyBatch(ops), o.batch(ops)
			twin.ApplyBatch(ops)
		case write && r < 20: // pops
			var gk, wk int64
			var gok, wok bool
			if rng.Intn(2) == 0 {
				gk, gok = l.PopMinKey()
				twin.PopMinKey()
				wk, wok = o.key(0)
			} else {
				gk, gok = l.PopMaxKey()
				twin.PopMaxKey()
				wk, wok = o.key(len(o.keys) - 1)
			}
			if wok {
				o.apply(op.Op{Kind: op.Remove, Key: wk})
			}
			got, want = [2]any{gk, gok}, [2]any{wk, wok}
		case write: // single-key writes
			x := op.Op{Kind: writeKind(), Key: key()}
			want = o.apply(x)
			twin.Apply(x)
			switch {
			case r < 50:
				got = l.Apply(x)
			case x.Kind == op.Add:
				got = l.AddKey(x.Key)
			default:
				got = l.RemoveKey(x.Key)
			}
		case r < 30: // scans
			lo := key()
			hi, limit := lo+rng.Int63n(300)-20, rng.Intn(12)
			arena := []int64{-1}
			arena, n, cursor := l.RangeScanInto(lo, hi, limit, arena)
			twin.RangeScanInto(lo, hi, limit, nil)
			wkeys, wcursor := o.scan(lo, hi, limit)
			if arena[0] != -1 || !slices.Equal(arena[1:], wkeys) || n != len(wkeys) || cursor != wcursor {
				t.Fatalf("step %d: scan [%d, %d) limit %d: got %v n %d cursor %d, want %v cursor %d",
					step, lo, hi, limit, arena[1:], n, cursor, wkeys, wcursor)
			}
		case r < 70: // neighbours and extremes
			k := key()
			i, found := o.at(k)
			var gk, wk int64
			var gok, wok bool
			switch r % 5 {
			case 0:
				gk, gok = l.PredKey(k)
				twin.PredKey(k)
				wk, wok = o.key(i - 1)
			case 1:
				gk, gok = l.SuccKey(k)
				twin.SuccKey(k)
				if found {
					i++
				}
				wk, wok = o.key(i)
			case 2:
				gk, gok = l.Successor(k)
				twin.Successor(k)
				wk, wok = o.key(i)
			case 3:
				gk, gok = l.Min()
				twin.Min()
				wk, wok = o.key(0)
			default:
				gk, gok = l.Max()
				twin.Max()
				wk, wok = o.key(len(o.keys) - 1)
			}
			got, want = [2]any{gk, gok}, [2]any{wk, wok}
		case r < 99: // lookups
			k := key()
			want = o.apply(op.Op{Kind: op.Contains, Key: k})
			twin.ContainsKey(k)
			if r%2 == 0 {
				got = l.ContainsKey(k)
			} else {
				got = l.Apply(op.Op{Kind: op.Contains, Key: k})
			}
		default:
			l.ResetSteps()
			twin.ResetSteps()
		}
		if batch, ok := got.([]bool); ok {
			if !slices.Equal(batch, want.([]bool)) {
				t.Fatalf("step %d: batch: got %v, want %v", step, batch, want)
			}
		} else if got != want {
			t.Fatalf("step %d: got %v, want %v", step, got, want)
		}

		if l.Steps() != twin.Steps() {
			t.Fatalf("step %d: Steps() = %d, twin that never re-lays out reads %d", step, l.Steps(), twin.Steps())
		}
		if l.Len() != len(o.keys) {
			t.Fatalf("step %d: Len() = %d, want %d", step, l.Len(), len(o.keys))
		}
		if !slices.Equal(l.Keys(), o.keys) {
			t.Fatalf("step %d: Keys() diverged from the oracle", step)
		}
		if l.relayouts != relayouts {
			if !slices.Equal(heights(l), heights(twin)) {
				t.Fatalf("step %d: a re-layout changed the tower heights", step)
			}
			checkLevels(t, l, step)
			// A compaction runs inside an insert, which then takes a
			// node from the tail; a re-layout by the read-paid rule
			// ends its call, so nothing has moved since.
			if l.relayouts-relayouts > l.compactions-compactions {
				checkSlab(t, l, step)
				checked++
			}
			relayouts, compactions = l.relayouts, l.compactions
		}
	}
	if twin.relayouts != 0 {
		t.Fatalf("the pinned twin re-laid out %d times", twin.relayouts)
	}
	if checked < 100 || compactions < 5 {
		t.Errorf("history crossed %d checked re-layouts and %d compactions, want ≥ 100 and ≥ 5", checked, compactions)
	}
	t.Logf("%d calls, %d re-layouts (%d checked in slab order, %d compactions), final length %d",
		steps, relayouts, checked, compactions, l.Len())
}
