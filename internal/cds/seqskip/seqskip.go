// Package seqskip implements a sequential skip-list set with integer
// keys. It is the per-partition structure used by the flat-combining
// skip-list (Section 4.2) and the reference implementation whose
// traversal lengths calibrate β in the analytical model.
//
// The paper prices an operation at β = Θ(log N) node visits, so the
// nodes and their towers come from two slab.Arenas and the list is
// re-laid out in key order by the arenas' rule, only reads paying
// towards the copy (see List). A re-layout keeps every tower height
// and charges no steps, so shapes, Steps and the simulator, which
// charges vault reads by Steps, see no difference.
package seqskip

import (
	"sort"

	"pimds/internal/cds/internal/slab"
	"pimds/internal/op"
)

// MaxHeight is the maximum tower height. 2^24 expected elements is far
// beyond any workload in this repository.
const MaxHeight = 24

// node is a key and its tower; next is carved from the link arena, and
// len(next) is the tower height.
type node struct {
	key  int64
	next []*node
}

// Growth rule. Removed nodes wait on per-height free lists, where a
// freed tall tower cannot host a short one; when the arenas would grow
// a chunk while the free lists strand more than Len()/strandLimit
// nodes, the list is compacted by a re-layout instead.
const strandLimit = 8

// List is a sequential skip-list with a -∞ head sentinel. Create one
// with New.
//
// Nodes come from nodes and their towers from links. Links stay
// pointers (an index link puts the index arithmetic on the load
// chain). A re-layout walks the bottom level once, writes each key and
// its tower height in order into the arenas' spares, relinks every
// level through a frontier of the last node copied per level, and
// swaps, so the next descent and every scan read memory in ascending
// address order.
//
// Removed nodes are recycled through the free lists and a re-layout
// reuses the spares, so once the arenas have grown to the list's
// high-water mark no operation allocates, re-layouts included — a List
// is owned by one combiner, which must not stall on GC while every
// published op on its shard waits.
type List struct {
	head   *node // sentinel with a MaxHeight tower; never moves
	height int   // current tallest tower
	size   int
	rng    uint64

	nodes slab.Arena[node]
	links slab.Arena[*node]

	// free[h-1] chains removed nodes with h-link towers through
	// next[0]; nfree counts them all.
	free  [MaxHeight]*node
	nfree int

	// disorder counts inserts before an existing node since the last
	// re-layout; reads counts the nodes reads have visited over the
	// list's lifetime, and mark is its value at the last re-layout.
	disorder    int
	reads, mark uint64

	// relayouts and compactions count re-layouts, all and those forced
	// by the growth rule (tests); pinned turns re-layouts off (tests).
	relayouts, compactions int
	pinned                 bool

	steps uint64 // node visits, for cost accounting
}

// New returns an empty skip-list whose tower heights are drawn from the
// deterministic stream seeded by seed (same seed ⇒ same shape).
func New(seed uint64) *List {
	return &List{
		head:   &node{key: minKey, next: make([]*node, MaxHeight)},
		height: 1,
		rng:    seed*2685821657736338717 + 1,
	}
}

const minKey = -1 << 63

// Len returns the number of keys in the list.
func (l *List) Len() int { return l.size }

// Steps returns node visits since the last ResetSteps.
func (l *List) Steps() uint64 { return l.steps }

// ResetSteps zeroes the visit counter.
func (l *List) ResetSteps() { l.steps = 0 }

// read charges the visits made since the step count was from to the
// reads that pay for re-layouts.
func (l *List) read(from uint64) { l.reads += l.steps - from }

// randLevel draws a tower height with geometric(1/2) distribution via
// xorshift64.
func (l *List) randLevel() int {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	h := 1
	for v := l.rng; v&1 == 1 && h < MaxHeight; v >>= 1 {
		h++
	}
	return h
}

// alloc returns a node with an h-link tower, from the free list of
// its height or from the arenas. moved reports that the growth rule
// compacted the list first: every node has moved, so no node pointer
// held across alloc is valid.
func (l *List) alloc(h int) (n *node, moved bool) {
	if n = l.free[h-1]; n != nil {
		l.free[h-1] = n.next[0]
		l.nfree--
		return n, false
	}
	if (!l.nodes.Fits(1) || !l.links.Fits(h)) && !l.pinned && l.nfree > l.size/strandLimit {
		l.compactions++
		l.relayout()
		moved = true
	}
	n = &l.nodes.Take(1)[0]
	n.next = l.links.Take(h)
	return n, moved
}

// settle runs after every mutating call and re-lays the list out once
// slab.Due says the reads have paid for the copy. Only reads (contains,
// scan, pred, succ) pay, because an insert-only phase (a preload, a
// restore) gains nothing from a layout it is about to disorder again.
func (l *List) settle() {
	if !l.pinned && slab.Due(l.disorder, l.size, l.reads-l.mark) {
		l.relayout()
	}
}

// relayout copies the list in key order into the arenas' spares and
// makes them the slabs. Every tower keeps its height. The free lists
// empty: every node past the last key is unused.
func (l *List) relayout() {
	dst, links := l.nodes.Spare(), l.links.Spare()
	var last [MaxHeight]*node
	for lvl := 0; lvl < l.height; lvl++ {
		last[lvl] = l.head
	}
	i, j := 0, 0
	for x := l.head.next[0]; x != nil; x = x.next[0] {
		h := len(x.next)
		n := &dst[i]
		n.key, n.next = x.key, links[j:j+h:j+h]
		for lvl := 0; lvl < h; lvl++ {
			last[lvl].next[lvl] = n
			last[lvl] = n
		}
		i++
		j += h
	}
	for lvl := 0; lvl < l.height; lvl++ {
		last[lvl].next[lvl] = nil
	}
	l.nodes.Swap(i)
	l.links.Swap(j)
	l.free = [MaxHeight]*node{}
	l.nfree = 0
	l.disorder = 0
	l.mark = l.reads
	l.relayouts++
}

// findPreds fills preds with the rightmost node before k on every
// level and returns the node at k on the bottom level, if any.
func (l *List) findPreds(k int64, preds *[MaxHeight]*node) *node {
	x := l.head
	for lvl := l.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && x.next[lvl].key < k {
			x = x.next[lvl]
			l.steps++
		}
		if x.next[lvl] != nil {
			l.steps++ // inspected the stopping node
		}
		preds[lvl] = x
	}
	if c := x.next[0]; c != nil && c.key == k {
		return c
	}
	return nil
}

// insert links a new node for the absent key k after preds, the
// frontier a walk to k left. If making room compacted the list, it
// walks to k again, uncharged, so that preds point into the new
// layout.
func (l *List) insert(k int64, preds *[MaxHeight]*node) {
	h := l.randLevel()
	n, moved := l.alloc(h)
	if moved {
		s := l.steps
		l.findPreds(k, preds)
		l.steps = s
	}
	for l.height < h {
		preds[l.height] = l.head
		l.height++
	}
	n.key = k
	for i := 0; i < h; i++ {
		n.next[i] = preds[i].next[i]
		preds[i].next[i] = n
	}
	if n.next[0] != nil {
		l.disorder++
	}
	l.size++
}

// unlink removes c, whose predecessor on every level of its tower is
// preds[level], and puts it on the free list of its height.
func (l *List) unlink(c *node, preds *[MaxHeight]*node) {
	h := len(c.next)
	for i := 0; i < h; i++ {
		if preds[i].next[i] == c {
			preds[i].next[i] = c.next[i]
		}
	}
	for l.height > 1 && l.head.next[l.height-1] == nil {
		l.height--
	}
	c.next[0] = l.free[h-1]
	l.free[h-1] = c
	l.nfree++
	l.size--
}

// ContainsKey reports whether k is in the list.
func (l *List) ContainsKey(k int64) bool {
	s := l.steps
	var preds [MaxHeight]*node
	found := l.findPreds(k, &preds) != nil
	l.read(s)
	return found
}

// AddKey inserts k and reports whether it was absent.
func (l *List) AddKey(k int64) bool {
	var preds [MaxHeight]*node
	if l.findPreds(k, &preds) != nil {
		return false
	}
	l.insert(k, &preds)
	l.settle()
	return true
}

// RemoveKey deletes k and reports whether it was present.
func (l *List) RemoveKey(k int64) bool {
	if !l.remove(k) {
		return false
	}
	l.settle()
	return true
}

func (l *List) remove(k int64) bool {
	var preds [MaxHeight]*node
	c := l.findPreds(k, &preds)
	if c == nil {
		return false
	}
	l.unlink(c, &preds)
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

// Keys returns the keys in ascending order (for tests).
func (l *List) Keys() []int64 {
	keys := make([]int64, 0, l.size)
	for n := l.head.next[0]; n != nil; n = n.next[0] {
		keys = append(keys, n.key)
	}
	return keys
}

// Successor returns the smallest key ≥ k and whether one exists. The
// PIM skip-list's migration protocol uses it to walk a partition's
// nodes in ascending order.
func (l *List) Successor(k int64) (int64, bool) {
	s := l.steps
	var preds [MaxHeight]*node
	l.findPreds(k, &preds)
	l.read(s)
	if n := preds[0].next[0]; n != nil {
		return n.key, true
	}
	return 0, false
}

// Min returns the smallest key and whether the list is non-empty.
func (l *List) Min() (int64, bool) {
	if n := l.head.next[0]; n != nil {
		return n.key, true
	}
	return 0, false
}

// Max returns the largest key and whether the list is non-empty. The
// walk rides the top levels right, so it costs O(log n) expected steps
// rather than a bottom-level traversal.
func (l *List) Max() (int64, bool) {
	s := l.steps
	k, ok := l.max()
	l.read(s)
	return k, ok
}

func (l *List) max() (int64, bool) {
	x := l.head
	for lvl := l.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil {
			x = x.next[lvl]
			l.steps++
		}
	}
	if x == l.head {
		return 0, false
	}
	return x.key, true
}

// PredKey returns the largest key strictly less than k and whether one
// exists.
func (l *List) PredKey(k int64) (int64, bool) {
	s := l.steps
	var preds [MaxHeight]*node
	l.findPreds(k, &preds)
	l.read(s)
	if p := preds[0]; p != l.head {
		return p.key, true
	}
	return 0, false
}

// SuccKey returns the smallest key strictly greater than k and whether
// one exists.
func (l *List) SuccKey(k int64) (int64, bool) {
	s := l.steps
	var preds [MaxHeight]*node
	var n *node
	if c := l.findPreds(k, &preds); c != nil {
		n = c.next[0]
		l.steps++
	} else {
		n = preds[0].next[0]
	}
	l.read(s)
	if n != nil {
		return n.key, true
	}
	return 0, false
}

// PopMinKey removes and returns the smallest key (ok=false on empty).
// The minimum's predecessor at every level is the head sentinel, so
// the unlink needs no descent.
func (l *List) PopMinKey() (int64, bool) {
	n := l.head.next[0]
	if n == nil {
		return 0, false
	}
	l.steps++
	var preds [MaxHeight]*node
	for i := range n.next {
		preds[i] = l.head
	}
	k := n.key
	l.unlink(n, &preds)
	l.settle()
	return k, true
}

// PopMaxKey removes and returns the largest key (ok=false on empty).
func (l *List) PopMaxKey() (int64, bool) {
	k, ok := l.max()
	if !ok {
		return 0, false
	}
	l.remove(k)
	l.settle()
	return k, true
}

// RangeScanInto appends to arena up to limit keys in the half-open
// interval [lo, hi) in ascending order (limit ≤ 0 = unlimited) and
// returns the grown arena, the number of keys appended, and the
// pagination cursor: hi when the interval was exhausted, else the
// first unreturned key. lo ≥ hi is a legal empty scan. One descent
// reaches lo (the β of the analytical model); the span walk then rides
// the bottom level, each visited node charged one step.
func (l *List) RangeScanInto(lo, hi int64, limit int, arena []int64) ([]int64, int, int64) {
	cursor := hi
	if lo >= hi {
		return arena, 0, cursor
	}
	s := l.steps
	var preds [MaxHeight]*node
	l.findPreds(lo, &preds)
	count := 0
	for n := preds[0].next[0]; n != nil && n.key < hi; n = n.next[0] {
		if limit > 0 && count == limit {
			cursor = n.key
			break
		}
		arena = append(arena, n.key)
		count++
		l.steps++
	}
	l.read(s)
	return arena, count, cursor
}

// ApplyBatch executes a batch of operations in ascending key order
// using a finger search: each lookup resumes from the previous
// operation's predecessor frontier instead of the head. This is the
// combining optimization transplanted from the linked-list (package
// seqlist). Section 4.2 argues it cannot help a skip-list much —
// "for any two distant nodes in the skip-list, the paths threads must
// traverse … do not have large overlapping sub-paths" — and the
// experiment `-exp skip-combining` measures exactly how little it
// saves. Results are returned in the batch's original order.
func (l *List) ApplyBatch(ops []op.Op) []bool {
	results := make([]bool, len(ops))
	if len(ops) == 0 {
		return results
	}
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].Key < ops[idx[b]].Key })

	var finger [MaxHeight]*node
	for i := range finger {
		finger[i] = l.head
	}
	for _, i := range idx {
		o := ops[i]
		// Resume each level from the finger (whose key is < every
		// remaining key, since keys ascend and fingers only hold
		// predecessors of earlier keys). Mutations invalidate nothing:
		// adds splice after the finger, removes unlink nodes at or
		// after it, and sentinel fingers never get deleted because a
		// finger node always has key < op.Key. An add that compacts
		// the list walks again, so its preds, the next finger, point
		// into the new layout.
		s := l.steps
		x := l.head
		var preds [MaxHeight]*node
		for lvl := l.height - 1; lvl >= 0; lvl-- {
			if finger[lvl] != nil && finger[lvl].key > x.key && finger[lvl].key < o.Key {
				x = finger[lvl]
			}
			for x.next[lvl] != nil && x.next[lvl].key < o.Key {
				x = x.next[lvl]
				l.steps++
			}
			if x.next[lvl] != nil {
				l.steps++
			}
			preds[lvl] = x
		}
		c := x.next[0]
		found := c != nil && c.key == o.Key

		switch o.Kind {
		case op.Contains:
			results[i] = found
			l.read(s)
		case op.Add:
			if !found {
				l.insert(o.Key, &preds)
			}
			results[i] = !found
		case op.Remove:
			if found {
				l.unlink(c, &preds)
			}
			results[i] = found
		}
		finger = preds
	}
	l.settle()
	return results
}

// ApplyOrderedBatchInto executes a batch that may mix point ops with
// the ordered kinds, in batch order (any serialization of a concurrent
// batch is linearizable), writing ops[i]'s outcome to res[i]
// (len(res) must equal len(ops)) and appending scan keys to arena; it
// returns the (possibly grown) arena, and each scan's res[i].Values is
// its segment of that arena. The contract is seqlist's entry point of
// the same name; nodes and towers come from the arenas, so a
// size-stable batch allocates nothing.
//
//pimvet:nopark
func (l *List) ApplyOrderedBatchInto(ops []op.Op, res []op.Result, arena []int64) []int64 {
	base, scans := len(arena), false
	for i, o := range ops {
		r := op.Result{ID: o.ID}
		switch o.Kind {
		case op.Contains:
			r.OK = l.ContainsKey(o.Key)
		case op.Add:
			r.OK = l.AddKey(o.Key)
		case op.Remove:
			r.OK = l.RemoveKey(o.Key)
		case op.Pred:
			r.Value, r.OK = l.PredKey(o.Key)
		case op.Succ:
			r.Value, r.OK = l.SuccKey(o.Key)
		case op.PopMin:
			r.Value, r.OK = l.PopMinKey()
		case op.PopMax:
			r.Value, r.OK = l.PopMaxKey()
		case op.RangeScan:
			start := len(arena)
			arena, _, r.Value = l.RangeScanInto(o.Key, o.Hi, int(o.Limit), arena)
			r.OK, r.Values, scans = true, arena[start:len(arena):len(arena)], true
		}
		res[i] = r
	}
	if scans {
		// A later scan may have grown (and moved) the arena under an
		// earlier one's segment: re-slice every segment from the arena
		// being returned.
		at := base
		for i := range ops {
			if ops[i].Kind == op.RangeScan {
				n := len(res[i].Values)
				res[i].Values = arena[at : at+n : at+n]
				at += n
			}
		}
	}
	return arena
}
