// Package seqhash implements a sequential chained hash table with
// probe counting. It is the per-vault structure of the PIM-managed
// hash map (package pimhash), this repository's extension beyond the
// paper's three structures: the conclusion invites "other types of
// PIM-managed data structures", and a hash map is the natural
// contended-but-partitionable candidate (FloDB, which the paper cites,
// uses exactly this pairing of a hash table with a skip-list).
package seqhash

import "pimds/internal/cds/internal/slab"

// Table is a sequential chained hash table from int64 keys to int64
// values. Create one with New. Steps() counts memory probes (bucket
// head loads plus chain-node visits) so the simulator can charge
// per-access costs.
//
// Chain entries come from a slab.Arena and deleted ones wait on a free
// list for the next insert, so once the arena and the bucket array
// have reached the table's high-water mark no operation allocates.
type Table struct {
	buckets []*entry
	entries slab.Arena[entry]
	free    *entry // deleted entries, chained through next
	size    int
	steps   uint64
}

type entry struct {
	key  int64
	val  int64
	next *entry
}

// New returns an empty table with capacity rounded up to a power of
// two (minimum 8).
func New(capacity int) *Table {
	n := 8
	for n < capacity {
		n *= 2
	}
	return &Table{buckets: make([]*entry, n)}
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.size }

// Steps returns memory probes since the last ResetSteps.
func (t *Table) Steps() uint64 { return t.steps }

// ResetSteps zeroes the probe counter.
func (t *Table) ResetSteps() { t.steps = 0 }

// hash mixes the key (splitmix64 finalizer) and maps it to a bucket.
func (t *Table) hash(k int64) int {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z & uint64(len(t.buckets)-1))
}

// find returns the entry for k, if any, counting probes.
func (t *Table) find(k int64) *entry {
	t.steps++ // bucket head load
	for e := t.buckets[t.hash(k)]; e != nil; e = e.next {
		t.steps++
		if e.key == k {
			return e
		}
	}
	return nil
}

// Get returns the value stored for k.
func (t *Table) Get(k int64) (int64, bool) {
	if e := t.find(k); e != nil {
		return e.val, true
	}
	return 0, false
}

// Put stores v under k and reports whether k was new.
func (t *Table) Put(k, v int64) bool {
	if e := t.find(k); e != nil {
		e.val = v
		return false
	}
	e := t.free
	if e != nil {
		t.free = e.next
	} else {
		e = &t.entries.Take(1)[0]
	}
	i := t.hash(k)
	e.key, e.val, e.next = k, v, t.buckets[i]
	t.buckets[i] = e
	t.size++
	if t.size > 3*len(t.buckets)/4 {
		t.grow()
	}
	return true
}

// Delete removes k and reports whether it was present.
func (t *Table) Delete(k int64) bool {
	i := t.hash(k)
	t.steps++
	for p := &t.buckets[i]; *p != nil; p = &(*p).next {
		t.steps++
		if e := *p; e.key == k {
			*p = e.next
			e.next = t.free
			t.free = e
			t.size--
			return true
		}
	}
	return false
}

// grow doubles the bucket array and rehashes; each moved entry costs
// one probe (it is one read plus one write, but a single counter keeps
// the accounting simple and the caller charges read+write per step
// during migration-sized rehashes anyway).
func (t *Table) grow() {
	old := t.buckets
	// Amortized table doubling at 3/4 load; O(1) per insert over the table's life
	t.buckets = make([]*entry, 2*len(old))
	for _, e := range old {
		for e != nil {
			next := e.next
			i := t.hash(e.key)
			e.next = t.buckets[i]
			t.buckets[i] = e
			t.steps++
			e = next
		}
	}
}

// Keys returns all keys in unspecified order (tests).
func (t *Table) Keys() []int64 {
	keys := make([]int64, 0, t.size)
	for _, e := range t.buckets {
		for ; e != nil; e = e.next {
			keys = append(keys, e.key)
		}
	}
	return keys
}
