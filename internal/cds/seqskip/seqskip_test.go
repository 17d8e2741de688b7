package seqskip

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pimds/internal/op"
)

func TestBasicOps(t *testing.T) {
	l := New(1)
	if l.Len() != 0 {
		t.Fatal("new list not empty")
	}
	if _, ok := l.Min(); ok {
		t.Error("Min on empty list reported ok")
	}
	keys := []int64{10, 5, 20, 15, 0, 7}
	for _, k := range keys {
		if !l.AddKey(k) {
			t.Errorf("AddKey(%d) failed", k)
		}
	}
	if l.AddKey(15) {
		t.Error("duplicate add succeeded")
	}
	for _, k := range keys {
		if !l.ContainsKey(k) {
			t.Errorf("ContainsKey(%d) = false", k)
		}
	}
	if l.ContainsKey(6) {
		t.Error("absent key found")
	}
	if min, ok := l.Min(); !ok || min != 0 {
		t.Errorf("Min = %d,%v want 0,true", min, ok)
	}
	if !l.RemoveKey(10) || l.RemoveKey(10) {
		t.Error("remove semantics broken")
	}
	got := l.Keys()
	want := []int64{0, 5, 7, 15, 20}
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

func TestApplyDispatch(t *testing.T) {
	l := New(2)
	if !l.Apply(op.Op{Kind: op.Add, Key: 1}) || !l.Apply(op.Op{Kind: op.Contains, Key: 1}) ||
		!l.Apply(op.Op{Kind: op.Remove, Key: 1}) {
		t.Error("apply dispatch broken")
	}
	if l.Apply(op.Op{Kind: op.Kind(99), Key: 1}) {
		t.Error("unknown op should return false")
	}
}

func TestAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		l := New(uint64(seed))
		ref := make(map[int64]bool)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 800; i++ {
			k := rng.Int63n(100)
			switch rng.Intn(3) {
			case 0:
				if l.AddKey(k) == ref[k] {
					return false
				}
				ref[k] = true
			case 1:
				if l.RemoveKey(k) != ref[k] {
					return false
				}
				delete(ref, k)
			default:
				if l.ContainsKey(k) != ref[k] {
					return false
				}
			}
		}
		if l.Len() != len(ref) {
			return false
		}
		keys := l.Keys()
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDeterministicShape: the same seed and op sequence produce the
// same tower heights, hence the same traversal step counts.
func TestDeterministicShape(t *testing.T) {
	build := func() uint64 {
		l := New(42)
		for k := int64(0); k < 500; k++ {
			l.AddKey(k * 7 % 500)
		}
		l.ResetSteps()
		for k := int64(0); k < 500; k++ {
			l.ContainsKey(k)
		}
		return l.Steps()
	}
	if a, b := build(), build(); a != b {
		t.Errorf("same seed produced different step counts: %d vs %d", a, b)
	}
}

// TestLogarithmicSearch: searches in a large list must visit far fewer
// nodes than a linear scan — the skip-list property that makes the
// combining optimization useless for skip-lists (Section 4.2).
func TestLogarithmicSearch(t *testing.T) {
	l := New(7)
	const n = 1 << 14
	for k := int64(0); k < n; k++ {
		l.AddKey(k)
	}
	l.ResetSteps()
	const searches = 1000
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < searches; i++ {
		l.ContainsKey(rng.Int63n(n))
	}
	perSearch := float64(l.Steps()) / searches
	// β ≈ 2·log2(16384) = 28; allow generous slack but far below n.
	if perSearch > 80 {
		t.Errorf("average search visited %.1f nodes, want O(log n) ≈ 28", perSearch)
	}
}

func TestHeightShrinksAfterRemovals(t *testing.T) {
	l := New(3)
	for k := int64(0); k < 1000; k++ {
		l.AddKey(k)
	}
	for k := int64(0); k < 1000; k++ {
		l.RemoveKey(k)
	}
	if l.Len() != 0 {
		t.Fatalf("len = %d after removing everything", l.Len())
	}
	if l.height != 1 {
		t.Errorf("height = %d after emptying, want 1", l.height)
	}
	// And the list still works.
	if !l.AddKey(5) || !l.ContainsKey(5) {
		t.Error("list broken after emptying")
	}
}

// TestApplyBatchEquivalence: ApplyBatch must return what applying the
// ops one at a time in ascending-key (stable) order returns, and leave
// identical contents — the same contract as seqlist.ApplyBatch.
func TestApplyBatchEquivalence(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		batched, serial := New(9), New(9) // same seed: same tower shapes
		for i := 0; i < 40; i++ {
			k := rng.Int63n(64)
			batched.AddKey(k)
			serial.AddKey(k)
		}
		ops := make([]op.Op, int(nOps%24)+1)
		for i := range ops {
			ops[i] = op.Op{Kind: op.Kind(rng.Intn(3)), Key: rng.Int63n(64)}
		}

		got := batched.ApplyBatch(ops)

		idx := make([]int, len(ops))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].Key < ops[idx[b]].Key })
		want := make([]bool, len(ops))
		for _, i := range idx {
			want[i] = serial.Apply(ops[i])
		}

		for i := range ops {
			if got[i] != want[i] {
				return false
			}
		}
		bk, sk := batched.Keys(), serial.Keys()
		if len(bk) != len(sk) {
			return false
		}
		for i := range bk {
			if bk[i] != sk[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestApplyBatchSavesLittle pins the §4.2 claim quantitatively: on a
// large skip-list, a batched traversal saves far less than the
// linked-list's combining does — under 40% even for a 16-op batch,
// versus the list's ~4× (see seqlist's TestBatchSingleTraversal).
func TestApplyBatchSavesLittle(t *testing.T) {
	build := func() *List {
		l := New(7)
		for k := int64(0); k < 1<<14; k++ {
			l.AddKey(k)
		}
		return l
	}
	rng := rand.New(rand.NewSource(3))
	var batch []op.Op
	for i := 0; i < 16; i++ {
		batch = append(batch, op.Op{Kind: op.Contains, Key: rng.Int63n(1 << 14)})
	}

	serial := build()
	serial.ResetSteps()
	for _, o := range batch {
		serial.Apply(o)
	}
	serialSteps := serial.Steps()

	batched := build()
	batched.ResetSteps()
	batched.ApplyBatch(batch)
	batchSteps := batched.Steps()

	if batchSteps >= serialSteps {
		t.Errorf("finger batch (%d steps) should not exceed serial (%d)", batchSteps, serialSteps)
	}
	saving := 1 - float64(batchSteps)/float64(serialSteps)
	if saving > 0.5 {
		t.Errorf("batch saved %.0f%%; §4.2 predicts small savings (paths share little)", saving*100)
	}
}

func TestApplyBatchEmpty(t *testing.T) {
	l := New(1)
	if got := l.ApplyBatch(nil); len(got) != 0 {
		t.Errorf("empty batch returned %v", got)
	}
}
