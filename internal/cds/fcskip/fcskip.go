// Package fcskip implements the flat-combining skip-list with k
// partitions of Section 4.2 / Figure 4: the key space is split into k
// disjoint ranges, each served by its own flat-combining instance over
// a sequential skip-list, so up to k combiners run in parallel. With
// k = 1 it is the plain flat-combining skip-list (Table 2 row 2).
//
// Its throughput is the paper's stand-in for the PIM-managed skip-list
// with k vaults: multiply by r1 to estimate the PIM version.
package fcskip

import (
	"fmt"

	"pimds/internal/cds/flatcombining"
	"pimds/internal/cds/seqskip"
	"pimds/internal/op"
)

// List is a partitioned flat-combining skip-list set over the key space
// [0, KeySpace). Create one with New; each goroutine needs its own
// Handle.
type List struct {
	keySpace int64
	parts    []*partition
}

type partition struct {
	fc  *flatcombining.FC[op.Op, bool]
	seq *seqskip.List
}

// New returns an empty partitioned FC skip-list over keys in
// [0, keySpace), split into k equal ranges. Like the paper's
// construction, partition i starts at sentinel key i·keySpace/k.
func New(keySpace int64, k int, seed uint64) *List {
	if k < 1 || keySpace < int64(k) {
		panic(fmt.Sprintf("fcskip: need 1 <= k (%d) <= keySpace (%d)", k, keySpace))
	}
	l := &List{keySpace: keySpace, parts: make([]*partition, k)}
	for i := range l.parts {
		p := &partition{seq: seqskip.New(seed + uint64(i)*0x9e3779b9)}
		p.fc = flatcombining.New(func(batch []*flatcombining.Record[op.Op, bool]) {
			for _, rec := range batch {
				rec.Finish(p.seq.Apply(rec.Op()))
			}
		})
		l.parts[i] = p
	}
	return l
}

// Partitions returns k.
func (l *List) Partitions() int { return len(l.parts) }

// partitionFor routes a key to its range's partition.
func (l *List) partitionFor(k int64) int {
	if k < 0 || k >= l.keySpace {
		panic(fmt.Sprintf("fcskip: key %d outside [0, %d)", k, l.keySpace))
	}
	return int(k * int64(len(l.parts)) / l.keySpace)
}

// Handle is a per-goroutine access handle: one publication record per
// partition.
type Handle struct {
	l    *List
	recs []*flatcombining.Record[op.Op, bool]
}

// NewHandle registers a goroutine with every partition.
func (l *List) NewHandle() *Handle {
	h := &Handle{l: l, recs: make([]*flatcombining.Record[op.Op, bool], len(l.parts))}
	for i, p := range l.parts {
		h.recs[i] = p.fc.NewRecord()
	}
	return h
}

// Contains reports whether k is in the set.
func (h *Handle) Contains(k int64) bool { return h.do(op.Contains, k) }

// Add inserts k and reports whether it was absent.
func (h *Handle) Add(k int64) bool { return h.do(op.Add, k) }

// Remove deletes k and reports whether it was present.
func (h *Handle) Remove(k int64) bool { return h.do(op.Remove, k) }

func (h *Handle) do(kind op.Kind, k int64) bool {
	i := h.l.partitionFor(k)
	p := h.l.parts[i]
	return p.fc.Do(h.recs[i], op.Op{Kind: kind, Key: k})
}

// Len returns the total number of keys at quiescence.
func (l *List) Len() int {
	total := 0
	for _, p := range l.parts {
		total += p.seq.Len()
	}
	return total
}

// Keys returns all keys in ascending order at quiescence (tests).
// Partitions hold disjoint ascending ranges, so concatenation is
// already sorted.
func (l *List) Keys() []int64 {
	var keys []int64
	for _, p := range l.parts {
		keys = append(keys, p.seq.Keys()...)
	}
	return keys
}
