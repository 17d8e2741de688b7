package linearize

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pimds/internal/op"
)

func TestEmptyHistory(t *testing.T) {
	if !check(t, QueueSpec{}, nil) {
		t.Error("empty history must be linearizable")
	}
}

func TestSequentialQueueHistory(t *testing.T) {
	// enq(1) enq(2) deq→1 deq→2, strictly sequential.
	h := []Op{
		{Start: 0, End: 1, Kind: op.Enqueue, Input: 1},
		{Start: 2, End: 3, Kind: op.Enqueue, Input: 2},
		{Start: 4, End: 5, Kind: op.Dequeue, Output: 1, OK: true},
		{Start: 6, End: 7, Kind: op.Dequeue, Output: 2, OK: true},
	}
	if !check(t, QueueSpec{}, h) {
		t.Error("sequential FIFO history must be linearizable")
	}
	// Swap dequeue outputs: no longer FIFO.
	h[2].Output, h[3].Output = 2, 1
	if check(t, QueueSpec{}, h) {
		t.Error("LIFO-order dequeues must not linearize as a queue")
	}
}

func TestConcurrentReorderAllowed(t *testing.T) {
	// Two concurrent enqueues then two dequeues in "wrong" order vs
	// invocation order: allowed because the enqueues overlap.
	h := []Op{
		{Start: 0, End: 10, Client: 1, Kind: op.Enqueue, Input: 1},
		{Start: 1, End: 9, Client: 2, Kind: op.Enqueue, Input: 2},
		{Start: 20, End: 21, Client: 3, Kind: op.Dequeue, Output: 2, OK: true},
		{Start: 22, End: 23, Client: 3, Kind: op.Dequeue, Output: 1, OK: true},
	}
	if !check(t, QueueSpec{}, h) {
		t.Error("concurrent enqueues may linearize in either order")
	}
	// Make the enqueues sequential: now the order is fixed.
	h[0].End = 1
	h[1].Start = 2
	h[1].End = 3
	if check(t, QueueSpec{}, h) {
		t.Error("sequential enqueues must dequeue in order")
	}
}

func TestDequeueEmptyLegality(t *testing.T) {
	// deq→empty concurrent with an enqueue: legal (linearize deq first).
	h := []Op{
		{Start: 0, End: 10, Client: 1, Kind: op.Enqueue, Input: 5},
		{Start: 1, End: 9, Client: 2, Kind: op.Dequeue, OK: false},
	}
	if !check(t, QueueSpec{}, h) {
		t.Error("empty dequeue concurrent with enqueue is linearizable")
	}
	// deq→empty strictly after a completed enqueue with no dequeue in
	// between: illegal.
	h = []Op{
		{Start: 0, End: 1, Kind: op.Enqueue, Input: 5},
		{Start: 2, End: 3, Kind: op.Dequeue, OK: false},
	}
	if check(t, QueueSpec{}, h) {
		t.Error("empty dequeue after completed enqueue must fail")
	}
}

func TestStackSpec(t *testing.T) {
	h := []Op{
		{Start: 0, End: 1, Kind: op.Push, Input: 1},
		{Start: 2, End: 3, Kind: op.Push, Input: 2},
		{Start: 4, End: 5, Kind: op.Pop, Output: 2, OK: true},
		{Start: 6, End: 7, Kind: op.Pop, Output: 1, OK: true},
	}
	if !check(t, StackSpec{}, h) {
		t.Error("LIFO history must linearize as a stack")
	}
	h[2].Output, h[3].Output = 1, 2
	if check(t, StackSpec{}, h) {
		t.Error("FIFO-order pops must not linearize as a stack")
	}
}

func TestSetSpec(t *testing.T) {
	h := []Op{
		{Start: 0, End: 1, Kind: op.Add, Input: 7, OK: true},
		{Start: 2, End: 3, Kind: op.Add, Input: 7, OK: false},
		{Start: 4, End: 5, Kind: op.Contains, Input: 7, OK: true},
		{Start: 6, End: 7, Kind: op.Remove, Input: 7, OK: true},
		{Start: 8, End: 9, Kind: op.Contains, Input: 7, OK: false},
	}
	if !check(t, SetSpec{}, h) {
		t.Error("legal set history rejected")
	}
	// A contains that sees a key that was never added.
	bad := []Op{{Start: 0, End: 1, Kind: op.Contains, Input: 9, OK: true}}
	if check(t, SetSpec{}, bad) {
		t.Error("phantom contains accepted")
	}
	// Two successful adds of the same key with no remove between.
	bad = []Op{
		{Start: 0, End: 1, Kind: op.Add, Input: 3, OK: true},
		{Start: 2, End: 3, Kind: op.Add, Input: 3, OK: true},
	}
	if check(t, SetSpec{}, bad) {
		t.Error("double successful add accepted")
	}
}

// TestRandomSequentialHistoriesAlwaysLinearizable: histories generated
// by actually running a sequential queue are always accepted, even
// after intervals are widened to overlap (a legal witness still
// exists).
func TestRandomSequentialHistoriesAlwaysLinearizable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q []int64
		var h []Op
		now := int64(0)
		for i := 0; i < 60; i++ {
			now += 2
			if rng.Intn(2) == 0 {
				v := rng.Int63n(100)
				q = append(q, v)
				h = append(h, Op{Start: now, End: now + 1, Kind: op.Enqueue, Input: v})
			} else if len(q) > 0 {
				v := q[0]
				q = q[1:]
				h = append(h, Op{Start: now, End: now + 1, Kind: op.Dequeue, Output: v, OK: true})
			} else {
				h = append(h, Op{Start: now, End: now + 1, Kind: op.Dequeue, OK: false})
			}
		}
		if !check(t, QueueSpec{}, h) {
			return false
		}
		// Widen every interval by a random amount: with every op on
		// one client, program order pins the sequential witness, which
		// remains legal.
		for i := range h {
			h[i].Start -= rng.Int63n(3)
			h[i].End += rng.Int63n(3)
		}
		return check(t, QueueSpec{}, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestInvertedIntervalIsError(t *testing.T) {
	ok, err := Check(QueueSpec{}, []Op{{Start: 5, End: 1, Kind: op.Enqueue}})
	if ok || !errors.Is(err, ErrInvertedInterval) {
		t.Errorf("inverted interval: Check = %v, %v; want false, ErrInvertedInterval", ok, err)
	}
}

// TestWindowExceededIsError drives 65 pairwise-overlapping pending
// enqueues, one per client: every one is eligible at the first step, so
// the search cannot stay inside its 64-op window. Check must say so
// with an error, not report a violation and not panic.
func TestWindowExceededIsError(t *testing.T) {
	h := make([]Op, window+1)
	for i := range h {
		h[i] = Op{Start: 0, End: 100, Client: i, Kind: op.Enqueue, Input: int64(i)}
	}
	ok, err := Check(QueueSpec{}, h)
	if ok || !errors.Is(err, ErrWindowExceeded) {
		t.Errorf("%d overlapping ops: Check = %v, %v; want false, ErrWindowExceeded", len(h), ok, err)
	}
	// One op fewer fits the window and linearizes.
	if !check(t, QueueSpec{}, h[:window]) {
		t.Errorf("%d overlapping enqueues must linearize", window)
	}
}

// check runs Check on a history the test built well formed and inside
// the window, so any error fails the test.
func check(t *testing.T, spec Spec, h []Op) bool {
	t.Helper()
	ok, err := Check(spec, h)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}
