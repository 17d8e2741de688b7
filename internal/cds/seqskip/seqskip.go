// Package seqskip implements a sequential skip-list set with integer
// keys. It is the per-partition structure used by the flat-combining
// skip-list (Section 4.2) and the reference implementation whose
// traversal lengths calibrate β in the analytical model.
package seqskip

import "sort"

// MaxHeight is the maximum tower height. 2^24 expected elements is far
// beyond any workload in this repository.
const MaxHeight = 24

// Op kinds, shared shape with package seqlist but defined locally so
// the packages stay independent.
type OpKind uint8

// The three set operations.
const (
	Contains OpKind = iota
	Add
	Remove
)

// Op is one set operation request.
type Op struct {
	Kind OpKind
	Key  int64
}

type node struct {
	key  int64
	next []*node
}

// List is a sequential skip-list with a -∞ head sentinel. Create one
// with New.
type List struct {
	head   *node
	height int // current tallest tower
	size   int
	rng    uint64

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

// ContainsKey reports whether k is in the list.
func (l *List) ContainsKey(k int64) bool {
	var preds [MaxHeight]*node
	return l.findPreds(k, &preds) != nil
}

// AddKey inserts k and reports whether it was absent.
func (l *List) AddKey(k int64) bool {
	var preds [MaxHeight]*node
	if l.findPreds(k, &preds) != nil {
		return false
	}
	lvl := l.randLevel()
	for l.height < lvl {
		preds[l.height] = l.head
		l.height++
	}
	//pimvet:allow allocfree: one node and its tower per successful insert; the structure grows by exactly what it stores
	n := &node{key: k, next: make([]*node, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = preds[i].next[i]
		preds[i].next[i] = n
	}
	l.size++
	return true
}

// RemoveKey deletes k and reports whether it was present.
func (l *List) RemoveKey(k int64) bool {
	var preds [MaxHeight]*node
	c := l.findPreds(k, &preds)
	if c == nil {
		return false
	}
	for i := 0; i < len(c.next); i++ {
		if preds[i].next[i] == c {
			preds[i].next[i] = c.next[i]
		}
	}
	for l.height > 1 && l.head.next[l.height-1] == nil {
		l.height--
	}
	l.size--
	return true
}

// Apply executes a single operation and returns its result.
func (l *List) Apply(op Op) bool {
	switch op.Kind {
	case Contains:
		return l.ContainsKey(op.Key)
	case Add:
		return l.AddKey(op.Key)
	case Remove:
		return l.RemoveKey(op.Key)
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
	var preds [MaxHeight]*node
	l.findPreds(k, &preds)
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
	var preds [MaxHeight]*node
	l.findPreds(k, &preds)
	if p := preds[0]; p != l.head {
		return p.key, true
	}
	return 0, false
}

// SuccKey returns the smallest key strictly greater than k and whether
// one exists.
func (l *List) SuccKey(k int64) (int64, bool) {
	var preds [MaxHeight]*node
	var n *node
	if c := l.findPreds(k, &preds); c != nil {
		n = c.next[0]
		l.steps++
	} else {
		n = preds[0].next[0]
	}
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
	for i := 0; i < len(n.next); i++ {
		if l.head.next[i] == n {
			l.head.next[i] = n.next[i]
		}
	}
	for l.height > 1 && l.head.next[l.height-1] == nil {
		l.height--
	}
	l.size--
	return n.key, true
}

// PopMaxKey removes and returns the largest key (ok=false on empty).
func (l *List) PopMaxKey() (int64, bool) {
	k, ok := l.Max()
	if !ok {
		return 0, false
	}
	l.RemoveKey(k)
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
func (l *List) ApplyBatch(ops []Op) []bool {
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
		op := ops[i]
		// Resume each level from the finger (whose key is < every
		// remaining key, since keys ascend and fingers only hold
		// predecessors of earlier keys). Mutations invalidate nothing:
		// adds splice after the finger, removes unlink nodes at or
		// after it, and sentinel fingers never get deleted because a
		// finger node always has key < op.Key.
		x := l.head
		var preds [MaxHeight]*node
		for lvl := l.height - 1; lvl >= 0; lvl-- {
			if finger[lvl] != nil && finger[lvl].key > x.key && finger[lvl].key < op.Key {
				x = finger[lvl]
			}
			for x.next[lvl] != nil && x.next[lvl].key < op.Key {
				x = x.next[lvl]
				l.steps++
			}
			if x.next[lvl] != nil {
				l.steps++
			}
			preds[lvl] = x
		}
		c := x.next[0]
		found := c != nil && c.key == op.Key

		switch op.Kind {
		case Contains:
			results[i] = found
		case Add:
			if found {
				results[i] = false
				break
			}
			lvlN := l.randLevel()
			for l.height < lvlN {
				preds[l.height] = l.head
				l.height++
			}
			n := &node{key: op.Key, next: make([]*node, lvlN)}
			for j := 0; j < lvlN; j++ {
				n.next[j] = preds[j].next[j]
				preds[j].next[j] = n
			}
			l.size++
			results[i] = true
		case Remove:
			if !found {
				results[i] = false
				break
			}
			for j := 0; j < len(c.next); j++ {
				if j < l.height && preds[j].next[j] == c {
					preds[j].next[j] = c.next[j]
				}
			}
			l.size--
			results[i] = true
		}
		finger = preds
	}
	return results
}
