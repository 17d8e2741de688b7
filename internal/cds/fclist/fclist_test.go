package fclist

import (
	"math/rand"
	"slices"
	"testing"

	"pimds/internal/cds/cdstest"
	"pimds/internal/cds/seqlist"
	"pimds/internal/op"
)

func TestSequentialSemanticsBothVariants(t *testing.T) {
	for _, combining := range []bool{false, true} {
		l := New(combining)
		cdstest.SetSequential(t, l.NewHandle(), 64, 4000, 17)
	}
}

func TestConcurrentConservationNoCombining(t *testing.T) {
	l := New(false)
	cdstest.SetStress(t,
		func() cdstest.Set { return l.NewHandle() },
		func() []int64 { return l.Keys() },
		128, 8, 2500, 303)
}

func TestConcurrentConservationCombining(t *testing.T) {
	l := New(true)
	cdstest.SetStress(t,
		func() cdstest.Set { return l.NewHandle() },
		func() []int64 { return l.Keys() },
		128, 8, 2500, 404)
}

func TestCombiningFlag(t *testing.T) {
	if New(true).Combining() != true || New(false).Combining() != false {
		t.Error("Combining flag not preserved")
	}
}

func TestStatsCount(t *testing.T) {
	l := New(true)
	h := l.NewHandle()
	for i := int64(0); i < 100; i++ {
		h.Add(i)
	}
	combines, served := l.Stats()
	if served != 100 {
		t.Errorf("served = %d, want 100", served)
	}
	if combines == 0 {
		t.Error("no combiner passes recorded")
	}
	if l.Len() != 100 {
		t.Errorf("len = %d, want 100", l.Len())
	}
}

// TestCombiningPassResultsUnchanged: a combining pass answers exactly
// what seqlist.ApplyBatch answers for the same batch, over batches that
// grow and shrink, so the reused results scratch never leaks a stale
// answer from an earlier, larger pass.
func TestCombiningPassResultsUnchanged(t *testing.T) {
	l, ref := New(true), seqlist.New()
	rng := rand.New(rand.NewSource(5))
	for pass := 0; pass < 2000; pass++ {
		ops := make([]op.Op, 1+rng.Intn(48))
		for i := range ops {
			ops[i] = op.Op{Kind: op.Kind(rng.Intn(3)), Key: rng.Int63n(256)}
		}
		want := ref.ApplyBatch(ops)
		got := l.combine(ops)
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d results for %d ops", pass, len(got), len(ops))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: op %d %+v: got %v, want %v", pass, i, ops[i], got[i], want[i])
			}
		}
	}
	if !slices.Equal(l.Keys(), ref.Keys()) {
		t.Error("contents diverged from seqlist")
	}
}
