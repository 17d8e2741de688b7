// Package flatcombining implements the flat-combining synchronization
// technique of Hendler, Incze, Shavit and Tzafrir (SPAA 2010), which
// the paper uses both as a CPU-side baseline and as the closest
// software analogue of a PIM core: threads publish requests in a
// publication list, one thread acquires a combiner lock and executes
// everybody's requests against a sequential structure.
//
// The engine is generic over the operation and result types, so a
// request and its result travel unboxed; the structure-specific part is
// a single Apply callback that receives the batch of pending requests.
package flatcombining

import (
	"runtime"
	"sync/atomic"
)

// Record is one thread's slot in the publication list. A thread must
// create its record once (NewRecord) and pass it to every Do call;
// records are never removed.
type Record[O, R any] struct {
	op      O
	result  R
	pending atomic.Bool
	next    *Record[O, R] // publication list link (immutable once published)
}

// Op returns the published operation. Only the combiner may call it,
// and only for records it observed pending.
func (r *Record[O, R]) Op() O { return r.op }

// Finish stores the operation's result and releases the waiting
// thread. Only the combiner may call it, exactly once per pending
// request it serves.
func (r *Record[O, R]) Finish(result R) {
	r.result = result
	r.pending.Store(false)
}

// Apply executes a batch of pending requests against the underlying
// sequential structure. It must call Finish on every record in the
// batch. Batches preserve no particular order; any serialization of
// concurrent requests is linearizable.
type Apply[O, R any] func(batch []*Record[O, R])

// FC is one flat-combining instance (one combiner lock, one
// publication list, one sequential structure).
type FC[O, R any] struct {
	apply Apply[O, R]

	lock atomic.Bool                  // combiner lock
	head atomic.Pointer[Record[O, R]] // publication list (LIFO push)

	batch []*Record[O, R] // combiner-owned scratch, guarded by lock

	// Combines counts combiner passes; Served counts requests
	// executed. Both are read by stats code after quiescence.
	Combines uint64
	Served   uint64
}

// New returns a flat-combining instance whose requests are executed by
// apply.
func New[O, R any](apply Apply[O, R]) *FC[O, R] {
	return &FC[O, R]{apply: apply}
}

// NewRecord registers a new thread with the publication list.
func (fc *FC[O, R]) NewRecord() *Record[O, R] {
	r := &Record[O, R]{}
	for {
		head := fc.head.Load()
		r.next = head
		if fc.head.CompareAndSwap(head, r) {
			return r
		}
	}
}

// Do publishes op on r, then either combines (if it wins the combiner
// lock) or spins until a combiner has served it. It returns the
// operation's result.
func (fc *FC[O, R]) Do(r *Record[O, R], op O) R {
	r.op = op
	r.pending.Store(true)

	for r.pending.Load() {
		if fc.lock.CompareAndSwap(false, true) {
			fc.combine()
			fc.lock.Store(false)
			// Our own request is usually served by our pass, but
			// a concurrent combiner may have picked it up just
			// before we took the lock — loop to re-check.
			continue
		}
		runtime.Gosched()
	}
	return r.result
}

// combine scans the publication list once and applies all pending
// requests as one batch. Callers must hold the combiner lock.
func (fc *FC[O, R]) combine() {
	fc.batch = fc.batch[:0]
	for rec := fc.head.Load(); rec != nil; rec = rec.next {
		if rec.pending.Load() {
			fc.batch = append(fc.batch, rec)
		}
	}
	if len(fc.batch) == 0 {
		return
	}
	fc.Combines++
	fc.Served += uint64(len(fc.batch))
	fc.apply(fc.batch)
	// Note: we cannot assert pending==false here — the moment Apply
	// finishes a record, its owner may return from Do and publish a
	// fresh request on the same record.
}
