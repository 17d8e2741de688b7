// Package seqlist implements a sequential sorted linked-list set with
// integer keys. It is the data structure a flat-combining combiner (or,
// in the simulator, a PIM core) manipulates on behalf of all threads,
// and it supports the paper's combining optimization: applying a whole
// batch of operations in a single traversal (Section 4.1).
//
// The paper prices that traversal at L per node, so the nodes come
// from a slab.Arena and the list is re-laid out in key order by the
// arena's rule, every node visit paying towards the copy (see List).
// Steps counts logical node visits only, so the simulator, which
// charges vault reads by Steps, sees no difference.
package seqlist

import (
	"pimds/internal/cds/internal/slab"
	"pimds/internal/op"
)

// Names kept for bench/, which is frozen until ROADMAP item 7's
// [benchmark] PR; everything else names them through package op.
type Op = op.Op // kept for bench/

// Set kinds kept for bench/ (see above).
const (
	Contains = op.Contains // kept for bench/
	Add      = op.Add      // kept for bench/
	Remove   = op.Remove   // kept for bench/
)

type node struct {
	key  int64
	next *node
}

// List is a sorted singly-linked list with a dummy head sentinel. The
// zero value is not ready to use; call New.
//
// Nodes come from nodes, the sentinel first. Links stay pointers (an
// index link puts the index arithmetic on the load chain). A re-layout
// walks the list once, writes the sentinel and then every key in order
// into the arena's spare, relinks them at consecutive addresses and
// swaps, so the next traversal reads memory in ascending address order.
//
// The list recycles removed nodes through a free list and keeps batch
// scratch inside itself, so in steady state (removals feeding later
// insertions, batch sizes stabilized) its batch entry points run
// without heap allocation, re-layouts included — a List is owned by one
// combiner, which must not stall on GC while every published op on its
// shard waits.
type List struct {
	head *node // dummy sentinel; key irrelevant
	size int

	nodes slab.Arena[node]

	// free chains removed nodes for reuse by the next insertion.
	free *node

	// disorder counts inserts that did not append at the tail since
	// the last re-layout; mark is visits() at that re-layout.
	disorder int
	mark     uint64

	// relayouts counts re-layouts (tests).
	relayouts int

	// idx/tmp are the walk's sort scratch and res ApplyBatchInto's
	// results, grown to the largest batch seen.
	idx, tmp []int
	res      []op.Result

	// steps counts node visits (pointer dereferences past the
	// sentinel) so tests and the simulator can charge traversal
	// costs; reset with ResetSteps, which folds it into reset.
	steps, reset uint64
}

// New returns an empty list.
func New() *List {
	l := &List{}
	l.head = &l.nodes.Take(1)[0]
	return l
}

// Len returns the number of keys in the list.
func (l *List) Len() int { return l.size }

// Steps returns the number of node visits since the last ResetSteps.
func (l *List) Steps() uint64 { return l.steps }

// ResetSteps zeroes the visit counter.
func (l *List) ResetSteps() {
	l.reset += l.steps
	l.steps = 0
}

// visits returns the node visits over the list's lifetime.
func (l *List) visits() uint64 { return l.reset + l.steps }

// settle runs after every mutating walk and re-lays the list out once
// slab.Due says the copy has been paid for.
func (l *List) settle() {
	if slab.Due(l.disorder, l.size, l.visits()-l.mark) {
		l.relayout()
	}
}

// relayout copies the list in key order into the arena's spare and
// makes it the slab. The free list empties: every node past the last
// key is unused.
func (l *List) relayout() {
	dst := l.nodes.Spare()
	i := 0
	for cur := l.head.next; cur != nil; cur = cur.next {
		i++
		dst[i].key = cur.key
		dst[i-1].next = &dst[i]
	}
	dst[i].next = nil
	l.nodes.Swap(i + 1)
	l.head = &dst[0]
	l.free = nil
	l.disorder = 0
	l.mark = l.visits()
	l.relayouts++
}

// newNode takes a node from the free list, or the arena. An insert
// before an existing node counts as disorder.
func (l *List) newNode(key int64, next *node) *node {
	n := l.free
	if n != nil {
		l.free = n.next
	} else {
		n = &l.nodes.Take(1)[0]
	}
	n.key, n.next = key, next
	if next != nil {
		l.disorder++
	}
	return n
}

// freeNode recycles a node just unlinked from the list.
func (l *List) freeNode(n *node) {
	n.next = l.free
	l.free = n
}

// find returns the last node with key < k, starting from from (which
// must already satisfy from.key < k or be the sentinel).
func (l *List) find(from *node, k int64) *node {
	pred := from
	for pred.next != nil && pred.next.key < k {
		pred = pred.next
		l.steps++
	}
	if pred.next != nil {
		l.steps++ // inspected the stopping node too
	}
	return pred
}

// ContainsKey reports whether k is in the list.
func (l *List) ContainsKey(k int64) bool {
	pred := l.find(l.head, k)
	return pred.next != nil && pred.next.key == k
}

// AddKey inserts k and reports whether it was absent.
func (l *List) AddKey(k int64) bool {
	pred := l.find(l.head, k)
	if pred.next != nil && pred.next.key == k {
		return false
	}
	pred.next = l.newNode(k, pred.next)
	l.size++
	l.settle()
	return true
}

// RemoveKey deletes k and reports whether it was present.
func (l *List) RemoveKey(k int64) bool {
	pred := l.find(l.head, k)
	if pred.next == nil || pred.next.key != k {
		return false
	}
	gone := pred.next
	pred.next = gone.next
	l.freeNode(gone)
	l.size--
	l.settle()
	return true
}

// Apply executes a single operation and returns its result.
func (l *List) Apply(o op.Op) bool {
	switch o.Kind {
	case op.Contains:
		return l.ContainsKey(o.Key)
	case op.Add:
		return l.AddKey(o.Key)
	case op.Remove:
		return l.RemoveKey(o.Key)
	default:
		return false
	}
}

// ApplyBatch executes a batch of operations in one traversal — the
// combining optimization of Section 4.1. Operations are served in
// ascending key order (ties in batch order), so the whole batch costs
// one walk to the largest requested key instead of one walk per
// operation. Results are returned in the batch's original order.
//
// Reordering operations with distinct keys is linearizable: the batch
// is concurrent, so any serialization is legal; same-key operations
// keep their relative order.
func (l *List) ApplyBatch(ops []op.Op) []bool {
	results := make([]bool, len(ops))
	l.ApplyBatchInto(ops, results)
	return results
}

// ApplyBatchInto is ApplyBatch writing into a caller-provided results
// slice (len(results) must equal len(ops)): the []bool view of
// ApplyOrderedBatchInto's walk, for set ops only. Its result scratch,
// the sort scratch and freed nodes are recycled inside the List, so a
// batch no larger than any before it, against a list no larger than
// its high-water mark, allocates nothing.
//
//pimvet:nopark
func (l *List) ApplyBatchInto(ops []op.Op, results []bool) {
	if cap(l.res) < len(ops) {
		l.res = make([]op.Result, len(ops)) // amortized grow to the largest batch; steady state reuses
	}
	res := l.res[:len(ops)]
	l.ApplyOrderedBatchInto(ops, res, nil)
	for i := range res {
		results[i] = res[i].OK
	}
}

// PopMinKey removes and returns the smallest key (ok=false on empty).
func (l *List) PopMinKey() (int64, bool) {
	k, ok := l.popMin()
	l.settle()
	return k, ok
}

// PopMaxKey removes and returns the largest key (ok=false on empty).
func (l *List) PopMaxKey() (int64, bool) {
	k, ok := l.popMax()
	l.settle()
	return k, ok
}

func (l *List) popMin() (int64, bool) {
	n := l.head.next
	if n == nil {
		return 0, false
	}
	l.steps++
	l.head.next = n.next
	k := n.key
	l.freeNode(n)
	l.size--
	return k, true
}

func (l *List) popMax() (int64, bool) {
	if l.head.next == nil {
		return 0, false
	}
	pred := l.head
	l.steps++
	for pred.next.next != nil {
		pred = pred.next
		l.steps++
	}
	gone := pred.next
	pred.next = nil
	k := gone.key
	l.freeNode(gone)
	l.size--
	return k, true
}

// ApplyOrderedBatchInto executes a batch that may mix point ops with
// the ordered kinds, in one shared traversal, writing ops[i]'s outcome
// to res[i] (len(res) must equal len(ops)) and appending scan keys to
// arena; it returns the (possibly grown) arena, and each scan's
// res[i].Values is its segment of that arena. The serialization it
// answers for is: all PopMin/PopMax in batch order first, then the
// remaining ops in ascending key order (ties in batch order) — legal
// for a concurrent batch, where any serialization is linearizable. The
// keyed ops share one finger walk, ApplyBatch's combining traversal: a
// scan's descent to lo rides the finger, and only its own span walk is
// private.
//
// A scan with Hi ≤ Key is a legal empty scan (complete, cursor = Hi).
// When a scan hits its limit (0 = unlimited), the cursor is the first
// unreturned key, so paginating clients resume exactly there.
//
//pimvet:nopark
func (l *List) ApplyOrderedBatchInto(ops []op.Op, res []op.Result, arena []int64) []int64 {
	if len(ops) == 0 {
		return arena
	}
	// Extremum pops go first: they touch the ends of the list, not a
	// key position, so serving them before the sweep keeps the finger
	// invariant (monotone key order) intact.
	keyed := 0
	for i := range ops {
		switch ops[i].Kind {
		case op.PopMin:
			v, ok := l.popMin()
			res[i] = op.Result{ID: ops[i].ID, OK: ok, Value: v}
		case op.PopMax:
			v, ok := l.popMax()
			res[i] = op.Result{ID: ops[i].ID, OK: ok, Value: v}
		default:
			keyed++
		}
	}
	if keyed == 0 {
		l.settle()
		return arena
	}
	if cap(l.idx) < len(ops) {
		l.idx = make([]int, len(ops)) // amortized grow to the largest batch; steady state reuses
		l.tmp = make([]int, len(ops)) // amortized grow to the largest batch; steady state reuses
	}
	idx := l.idx[:keyed]
	j := 0
	for i := range ops {
		if ops[i].Kind != op.PopMin && ops[i].Kind != op.PopMax {
			idx[j] = i
			j++
		}
	}
	stableSortByKey(ops, idx, l.tmp[:keyed])

	pred := l.head
	base, scans := len(arena), false
	for _, i := range idx {
		o := ops[i]
		pred = l.find(pred, o.Key)
		r := op.Result{ID: o.ID}
		switch o.Kind {
		case op.Contains:
			r.OK = pred.next != nil && pred.next.key == o.Key
		case op.Add:
			if pred.next == nil || pred.next.key != o.Key {
				pred.next = l.newNode(o.Key, pred.next)
				l.size++
				r.OK = true
			}
		case op.Remove:
			if pred.next != nil && pred.next.key == o.Key {
				gone := pred.next
				pred.next = gone.next
				l.freeNode(gone)
				l.size--
				r.OK = true
			}
		case op.Pred:
			if pred != l.head {
				r.OK, r.Value = true, pred.key
			}
		case op.Succ:
			n := pred.next
			if n != nil && n.key == o.Key {
				n = n.next
				l.steps++
			}
			if n != nil {
				r.OK, r.Value = true, n.key
			}
		case op.RangeScan:
			start := len(arena)
			r.OK, r.Value = true, o.Hi
			for cur := pred.next; cur != nil && cur.key < o.Hi; cur = cur.next {
				if o.Limit > 0 && len(arena)-start == int(o.Limit) {
					r.Value = cur.key
					break
				}
				arena = append(arena, cur.key) // amortized arena grow to the largest scan pass; steady state reuses
				l.steps++
			}
			r.Values = arena[start:len(arena):len(arena)]
			scans = true
		}
		res[i] = r
	}
	if scans {
		// A later scan may have grown (and moved) the arena under an
		// earlier one's segment: re-slice every segment, in the order
		// the scans appended, from the arena being returned.
		at := base
		for _, i := range idx {
			if ops[i].Kind == op.RangeScan {
				n := len(res[i].Values)
				res[i].Values = arena[at : at+n : at+n]
				at += n
			}
		}
	}
	l.settle()
	return arena
}

// stableSortByKey sorts idx so that ops[idx[i]].Key ascends, preserving
// batch order between equal keys: bottom-up merge sort into tmp,
// taking from the left run on ties. Equivalent ordering to
// sort.SliceStable with a key comparison, without boxing the slice
// into an interface or allocating the comparison closure per call.
func stableSortByKey(ops []op.Op, idx, tmp []int) {
	n := len(idx)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo+width < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if hi > n {
				hi = n
			}
			copy(tmp[lo:hi], idx[lo:hi])
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				switch {
				case i >= mid:
					idx[k] = tmp[j]
					j++
				case j >= hi:
					idx[k] = tmp[i]
					i++
				case ops[tmp[j]].Key < ops[tmp[i]].Key:
					idx[k] = tmp[j]
					j++
				default:
					idx[k] = tmp[i]
					i++
				}
			}
		}
	}
}

// Keys returns the keys in ascending order (for tests).
func (l *List) Keys() []int64 {
	keys := make([]int64, 0, l.size)
	for n := l.head.next; n != nil; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}
