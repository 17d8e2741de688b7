package seqlist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pimds/internal/op"
)

func TestBasicOps(t *testing.T) {
	l := New()
	if l.Len() != 0 {
		t.Fatal("new list not empty")
	}
	if l.ContainsKey(5) {
		t.Error("empty list contains 5")
	}
	if !l.AddKey(5) || !l.AddKey(3) || !l.AddKey(8) {
		t.Error("fresh adds should succeed")
	}
	if l.AddKey(5) {
		t.Error("duplicate add should fail")
	}
	if !l.ContainsKey(3) || !l.ContainsKey(5) || !l.ContainsKey(8) {
		t.Error("added keys missing")
	}
	if l.ContainsKey(4) {
		t.Error("absent key found")
	}
	if !l.RemoveKey(5) {
		t.Error("remove of present key failed")
	}
	if l.RemoveKey(5) {
		t.Error("double remove succeeded")
	}
	if got := l.Keys(); len(got) != 2 || got[0] != 3 || got[1] != 8 {
		t.Errorf("keys = %v, want [3 8]", got)
	}
	if l.Len() != 2 {
		t.Errorf("len = %d, want 2", l.Len())
	}
}

func TestApplyDispatch(t *testing.T) {
	l := New()
	if !l.Apply(op.Op{Kind: op.Add, Key: 1}) {
		t.Error("apply add failed")
	}
	if !l.Apply(op.Op{Kind: op.Contains, Key: 1}) {
		t.Error("apply contains failed")
	}
	if !l.Apply(op.Op{Kind: op.Remove, Key: 1}) {
		t.Error("apply remove failed")
	}
	if l.Apply(op.Op{Kind: op.Kind(99), Key: 1}) {
		t.Error("unknown op should return false")
	}
}

// TestAgainstMap checks list semantics against map semantics on random
// operation streams.
func TestAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		l := New()
		ref := make(map[int64]bool)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			k := rng.Int63n(50)
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
		return l.Len() == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBatchEquivalence: ApplyBatch must return exactly what applying
// the ops one at a time in ascending-key (stable) order returns, and
// leave the same final contents.
func TestBatchEquivalence(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Start both lists with identical contents.
		batched, serial := New(), New()
		for i := 0; i < 30; i++ {
			k := rng.Int63n(40)
			batched.AddKey(k)
			serial.AddKey(k)
		}
		ops := make([]op.Op, int(nOps%24)+1)
		for i := range ops {
			ops[i] = op.Op{Kind: op.Kind(rng.Intn(3)), Key: rng.Int63n(40)}
		}

		gotResults := batched.ApplyBatch(ops)

		idx := make([]int, len(ops))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].Key < ops[idx[b]].Key })
		wantResults := make([]bool, len(ops))
		for _, i := range idx {
			wantResults[i] = serial.Apply(ops[i])
		}

		for i := range ops {
			if gotResults[i] != wantResults[i] {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestApplyBatchEmpty(t *testing.T) {
	l := New()
	if got := l.ApplyBatch(nil); len(got) != 0 {
		t.Errorf("empty batch returned %v", got)
	}
}

// TestBatchSingleTraversal: a batch's traversal cost is bounded by the
// position of its largest key, not the sum of positions — the whole
// point of the combining optimization.
func TestBatchSingleTraversal(t *testing.T) {
	l := New()
	for k := int64(0); k < 1000; k++ {
		l.AddKey(k)
	}
	l.ResetSteps()
	ops := []op.Op{
		{Kind: op.Contains, Key: 900}, {Kind: op.Contains, Key: 100}, {Kind: op.Contains, Key: 500},
		{Kind: op.Contains, Key: 901}, {Kind: op.Contains, Key: 101}, {Kind: op.Contains, Key: 501},
	}
	l.ApplyBatch(ops)
	batchSteps := l.Steps()

	l.ResetSteps()
	for _, o := range ops {
		l.Apply(o)
	}
	serialSteps := l.Steps()

	// Serial: ~2900+ visits. Batch: ~905 visits.
	if batchSteps >= serialSteps/2 {
		t.Errorf("batch took %d steps, serial %d; combining should be far cheaper", batchSteps, serialSteps)
	}
	if batchSteps > 1000 {
		t.Errorf("batch steps = %d, want ≤ list length (single traversal)", batchSteps)
	}
}

// TestBatchSameKeyOrder: same-key ops keep their batch order.
func TestBatchSameKeyOrder(t *testing.T) {
	l := New()
	res := l.ApplyBatch([]op.Op{{Kind: op.Add, Key: 7}, {Kind: op.Remove, Key: 7}, {Kind: op.Add, Key: 7}, {Kind: op.Contains, Key: 7}})
	want := []bool{true, true, true, true}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("results = %v, want %v", res, want)
		}
	}
	if !l.ContainsKey(7) {
		t.Error("7 should survive add-remove-add")
	}
}
