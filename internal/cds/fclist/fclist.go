// Package fclist implements the flat-combining linked-list of
// Section 4.1, in both variants the paper evaluates in Figure 2:
// without the combining optimization (the combiner executes each
// request with its own traversal) and with it (the combiner serves the
// whole batch in one traversal). The FC list's throughput is the
// paper's stand-in for the PIM-managed linked-list: multiply by r1 to
// estimate the PIM list.
package fclist

import (
	"pimds/internal/cds/flatcombining"
	"pimds/internal/cds/seqlist"
	"pimds/internal/op"
)

// List is a flat-combining sorted linked-list set. Create one with New;
// each goroutine must obtain its own Handle.
type List struct {
	fc        *flatcombining.FC[op.Op, bool]
	seq       *seqlist.List
	combining bool

	ops     []op.Op // combiner scratch
	results []bool  // combiner scratch
}

// New returns an empty FC list. If combining is true the combiner
// applies each batch in a single traversal (the paper's combining
// optimization); otherwise it traverses once per request.
func New(combining bool) *List {
	l := &List{seq: seqlist.New(), combining: combining}
	l.fc = flatcombining.New(l.apply)
	return l
}

// Combining reports whether the combining optimization is enabled.
func (l *List) Combining() bool { return l.combining }

// Handle is a per-goroutine access handle (its publication record).
type Handle struct {
	l   *List
	rec *flatcombining.Record[op.Op, bool]
}

// NewHandle registers a goroutine with the list.
func (l *List) NewHandle() *Handle {
	return &Handle{l: l, rec: l.fc.NewRecord()}
}

// Contains reports whether k is in the set.
func (h *Handle) Contains(k int64) bool { return h.do(op.Contains, k) }

// Add inserts k and reports whether it was absent.
func (h *Handle) Add(k int64) bool { return h.do(op.Add, k) }

// Remove deletes k and reports whether it was present.
func (h *Handle) Remove(k int64) bool { return h.do(op.Remove, k) }

func (h *Handle) do(kind op.Kind, k int64) bool {
	return h.l.fc.Do(h.rec, op.Op{Kind: kind, Key: k})
}

// apply runs under the combiner lock.
func (l *List) apply(batch []*flatcombining.Record[op.Op, bool]) {
	if l.combining {
		l.ops = l.ops[:0]
		for _, rec := range batch {
			l.ops = append(l.ops, rec.Op())
		}
		results := l.combine(l.ops)
		for i, rec := range batch {
			rec.Finish(results[i])
		}
		return
	}
	for _, rec := range batch {
		rec.Finish(l.seq.Apply(rec.Op()))
	}
}

// combine serves ops in one traversal into the reused results
// scratch, so a pass allocates nothing once the scratch has grown to
// the largest batch.
func (l *List) combine(ops []op.Op) []bool {
	if cap(l.results) < len(ops) {
		l.results = make([]bool, len(ops))
	}
	results := l.results[:len(ops)]
	l.seq.ApplyBatchInto(ops, results)
	return results
}

// Len returns the number of keys at quiescence.
func (l *List) Len() int { return l.seq.Len() }

// Keys returns the keys in ascending order at quiescence (tests).
func (l *List) Keys() []int64 { return l.seq.Keys() }

// Stats returns (combiner passes, requests served) so far.
func (l *List) Stats() (combines, served uint64) {
	return l.fc.Combines, l.fc.Served
}
