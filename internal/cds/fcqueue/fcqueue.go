// Package fcqueue implements the flat-combining FIFO queue the paper
// compares against in Section 5 (based on Hendler et al. [25], with the
// paper's modification): two combiner locks, one for enqueues and one
// for dequeues, so an enqueue combiner and a dequeue combiner run in
// parallel, like the two-lock queue of Michael and Scott.
//
// The queue is a linked list with a dummy head. The enqueue side owns
// the tail pointer, the dequeue side owns the head pointer; the only
// field both sides touch is a node's next pointer (when the queue is
// near-empty), which is atomic.
package fcqueue

import (
	"sync/atomic"

	"pimds/internal/cds/flatcombining"
)

type node struct {
	val  int64
	next atomic.Pointer[node]
}

// Queue is a flat-combining FIFO queue of int64 values. Create one with
// New; each goroutine needs its own Handle.
type Queue struct {
	head *node // owned by the dequeue combiner; dummy node
	tail *node // owned by the enqueue combiner

	enqFC *flatcombining.FC[int64, struct{}]
	deqFC *flatcombining.FC[struct{}, deqResult]
}

// deqResult is the result of one dequeue.
type deqResult struct {
	val int64
	ok  bool
}

// New returns an empty queue.
func New() *Queue {
	dummy := &node{}
	q := &Queue{head: dummy, tail: dummy}
	q.enqFC = flatcombining.New(q.applyEnqs)
	q.deqFC = flatcombining.New(q.applyDeqs)
	return q
}

func (q *Queue) applyEnqs(batch []*flatcombining.Record[int64, struct{}]) {
	for _, rec := range batch {
		n := &node{val: rec.Op()}
		q.tail.next.Store(n)
		q.tail = n
		rec.Finish(struct{}{})
	}
}

func (q *Queue) applyDeqs(batch []*flatcombining.Record[struct{}, deqResult]) {
	for _, rec := range batch {
		next := q.head.next.Load()
		if next == nil {
			rec.Finish(deqResult{})
			continue
		}
		q.head = next
		rec.Finish(deqResult{val: next.val, ok: true})
	}
}

// Handle is a per-goroutine access handle (one publication record per
// side).
type Handle struct {
	q      *Queue
	enqRec *flatcombining.Record[int64, struct{}]
	deqRec *flatcombining.Record[struct{}, deqResult]
}

// NewHandle registers a goroutine with the queue.
func (q *Queue) NewHandle() *Handle {
	return &Handle{q: q, enqRec: q.enqFC.NewRecord(), deqRec: q.deqFC.NewRecord()}
}

// Enqueue appends v to the queue.
func (h *Handle) Enqueue(v int64) {
	h.q.enqFC.Do(h.enqRec, v)
}

// Dequeue removes and returns the oldest value; ok is false if the
// queue was observed empty.
func (h *Handle) Dequeue() (v int64, ok bool) {
	r := h.q.deqFC.Do(h.deqRec, struct{}{})
	return r.val, r.ok
}

// Len returns the queue length at quiescence (tests).
func (q *Queue) Len() int {
	n := 0
	for cur := q.head.next.Load(); cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}

// Drain removes all values at quiescence and returns them in FIFO
// order (tests).
func (q *Queue) Drain() []int64 {
	var vals []int64
	for cur := q.head.next.Load(); cur != nil; cur = cur.next.Load() {
		vals = append(vals, cur.val)
		q.head = cur
	}
	return vals
}
