package server

import (
	"fmt"
	"sort"

	"pimds/internal/cds/seqhash"
	"pimds/internal/cds/seqlist"
	"pimds/internal/cds/seqskip"
	"pimds/internal/op"
)

// A backend is one shard's sequential structure. It is only ever
// touched by that shard's combiner goroutine, so — exactly as in flat
// combining — it needs no synchronization of its own: the dispatch
// loop is the combiner lock.
//
// ApplyBatch executes ops[i] and writes its outcome to out[i]; kinds
// have already been validated against the structure's capability row by
// the reader, so a backend only sees kinds it supports. Range scans
// append their keys to arena and slice out[i].Values from the returned
// (possibly grown) arena — every Values field is valid only until the
// next pass reuses the arena, so release copies them into the frame
// they answer.
//
// ApplyBatch runs inside the combining window (Server.applyBatch), so
// every implementation is marked //pimvet:nopark: pimvet cannot see
// through the interface call, so the contract is checked on each
// implementation instead. Allocation is pinned at runtime: the list,
// skip and hash structures recycle nodes from chunked arenas and
// allocate only when one grows past its high-water mark
// (TestApplyBatchAllocs, TestHashApplyBatchAllocs).
type backend interface {
	// ApplyBatch serves one combiner pass. len(out) == len(ops).
	ApplyBatch(ops []op.Op, out []op.Result, arena []int64) []int64
	// Len returns the element count (used at quiescence by tests and
	// the metrics collector).
	Len() int

	SnapshotterBackend
}

// SnapshotterBackend is the serialization contract snapshots need from
// every structure. AppendState appends a canonical dump — a fixed,
// implementation-independent order (sets ascending, queue front→back,
// stack bottom→top) so equal states always dump byte-identically, the
// property the replay-determinism tests pin. RestoreState rebuilds the
// structure from such a dump; both run outside the combining window
// (snapshot dumps in combiner context between batches, restores before
// the server accepts), so they may allocate freely.
type SnapshotterBackend interface {
	AppendState(dst []int64) []int64
	RestoreState(vals []int64)
}

// restoreState rebuilds a backend from its canonical dump by replaying
// synthetic unconditional-insert batches through the backend's own
// ApplyBatch — the same code path recovery replays log records
// through, so a restored structure is bit-for-bit what replaying the
// inserts would build (skip towers included: they draw from the
// seeded per-shard generator in insertion order either way).
func restoreState(be backend, kind op.Kind, vals []int64) {
	const chunk = 512
	ops := make([]op.Op, 0, chunk)
	out := make([]op.Result, chunk)
	for len(vals) > 0 {
		n := len(vals)
		if n > chunk {
			n = chunk
		}
		ops = ops[:0]
		for _, v := range vals[:n] {
			ops = append(ops, op.Op{Kind: kind, Key: v})
		}
		be.ApplyBatch(ops, out[:n], nil)
		vals = vals[n:]
	}
}

// Structure names accepted by Config.Structure.
const (
	StructList  = "list"
	StructSkip  = "skip"
	StructHash  = "hash"
	StructQueue = "queue"
	StructStack = "stack"
)

// towerSeed seeds the skip-list tower generators: shard i draws from
// towerSeed + i·0x9e3779b97f4a7c15. bench/replay.go builds its towers
// from the same seed, so its layer replay sees the server's shapes.
const towerSeed = 1

// newBackend builds shard i of n for the named structure.
func newBackend(structure string, shard int) (backend, error) {
	switch structure {
	case StructList:
		return listBackend{seqlist.New()}, nil
	case StructSkip:
		return skipBackend{seqskip.New(towerSeed + uint64(shard)*0x9e3779b97f4a7c15)}, nil
	case StructHash:
		return &hashBackend{t: seqhash.New(1 << 10)}, nil
	case StructQueue:
		return &queueBackend{}, nil
	case StructStack:
		return &stackBackend{}, nil
	}
	return nil, fmt.Errorf("server: unknown structure %q (want %s|%s|%s|%s|%s)",
		structure, StructList, StructSkip, StructHash, StructQueue, StructStack)
}

// listBackend serves set ops on a sorted linked list, using the
// paper's combining optimization: the whole batch is sorted and served
// in one traversal that point ops, neighbor queries and range scans
// share (seqlist.ApplyOrderedBatchInto).
type listBackend struct{ l *seqlist.List }

//pimvet:nopark
func (b listBackend) ApplyBatch(ops []op.Op, out []op.Result, arena []int64) []int64 {
	return b.l.ApplyOrderedBatchInto(ops, out, arena)
}

func (b listBackend) Len() int { return b.l.Len() }

func (b listBackend) AppendState(dst []int64) []int64 { return append(dst, b.l.Keys()...) }
func (b listBackend) RestoreState(vals []int64)       { restoreState(b, op.Add, vals) }

// skipBackend serves set ops on a sequential skip-list, applying the
// batch in publication order (seqskip.ApplyOrderedBatchInto).
type skipBackend struct{ l *seqskip.List }

//pimvet:nopark
func (b skipBackend) ApplyBatch(ops []op.Op, out []op.Result, arena []int64) []int64 {
	return b.l.ApplyOrderedBatchInto(ops, out, arena)
}

func (b skipBackend) Len() int { return b.l.Len() }

func (b skipBackend) AppendState(dst []int64) []int64 { return append(dst, b.l.Keys()...) }
func (b skipBackend) RestoreState(vals []int64)       { restoreState(b, op.Add, vals) }

// hashBackend serves set ops on a chained hash table (keys only; the
// stored value mirrors the key). Chain entries are recycled and the
// table doubles as it fills; TestHashApplyBatchAllocs pins a steady
// pass allocation-free.
type hashBackend struct {
	t *seqhash.Table
}

//pimvet:nopark
func (b *hashBackend) ApplyBatch(ops []op.Op, out []op.Result, arena []int64) []int64 {
	for i, o := range ops {
		var ok bool
		switch o.Kind {
		case op.Contains:
			_, ok = b.t.Get(o.Key)
		case op.Add:
			ok = b.t.Put(o.Key, o.Key)
		case op.Remove:
			ok = b.t.Delete(o.Key)
		}
		out[i] = op.Result{ID: o.ID, OK: ok}
	}
	return arena
}

func (b *hashBackend) Len() int { return b.t.Len() }

// AppendState sorts the dump: the table iterates in bucket order,
// which depends on table geometry, not on the abstract state.
func (b *hashBackend) AppendState(dst []int64) []int64 {
	start := len(dst)
	dst = append(dst, b.t.Keys()...)
	keys := dst[start:]
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return dst
}

func (b *hashBackend) RestoreState(vals []int64) { restoreState(b, op.Add, vals) }

// queueBackend is a FIFO queue over a growable ring buffer. Enqueue
// always succeeds (OK=true); Dequeue reports OK=false on empty.
type queueBackend struct {
	buf        []int64
	head, size int
}

//pimvet:nopark
func (b *queueBackend) ApplyBatch(ops []op.Op, out []op.Result, arena []int64) []int64 {
	for i, o := range ops {
		switch o.Kind {
		case op.Enqueue:
			b.push(o.Key)
			out[i] = op.Result{ID: o.ID, OK: true}
		case op.Dequeue:
			v, ok := b.pop()
			out[i] = op.Result{ID: o.ID, OK: ok, Value: v}
		}
	}
	return arena
}

func (b *queueBackend) push(v int64) {
	if b.size == len(b.buf) {
		grown := make([]int64, 2*len(b.buf)+1) // amortized ring doubling to the high-water depth; steady state reuses
		for i := 0; i < b.size; i++ {
			grown[i] = b.buf[(b.head+i)%len(b.buf)]
		}
		b.buf, b.head = grown, 0
	}
	b.buf[(b.head+b.size)%len(b.buf)] = v
	b.size++
}

func (b *queueBackend) pop() (int64, bool) {
	if b.size == 0 {
		return 0, false
	}
	v := b.buf[b.head]
	b.head = (b.head + 1) % len(b.buf)
	b.size--
	return v, true
}

func (b *queueBackend) Len() int { return b.size }

// AppendState dumps front→back, so restoring by Enqueue preserves FIFO
// order.
func (b *queueBackend) AppendState(dst []int64) []int64 {
	for i := 0; i < b.size; i++ {
		dst = append(dst, b.buf[(b.head+i)%len(b.buf)])
	}
	return dst
}

func (b *queueBackend) RestoreState(vals []int64) { restoreState(b, op.Enqueue, vals) }

// stackBackend is a LIFO stack over a slice. Pop reports OK=false on
// empty. Pushes append into receiver storage: amortized growth to the
// high-water depth, then allocation-free.
type stackBackend struct {
	vals []int64
}

//pimvet:nopark
func (b *stackBackend) ApplyBatch(ops []op.Op, out []op.Result, arena []int64) []int64 {
	for i, o := range ops {
		switch o.Kind {
		case op.Push:
			b.vals = append(b.vals, o.Key)
			out[i] = op.Result{ID: o.ID, OK: true}
		case op.Pop:
			if n := len(b.vals); n > 0 {
				out[i] = op.Result{ID: o.ID, OK: true, Value: b.vals[n-1]}
				b.vals = b.vals[:n-1]
			} else {
				out[i] = op.Result{ID: o.ID}
			}
		}
	}
	return arena
}

func (b *stackBackend) Len() int { return len(b.vals) }

// AppendState dumps bottom→top, so restoring by Push rebuilds the same
// stack.
func (b *stackBackend) AppendState(dst []int64) []int64 { return append(dst, b.vals...) }
func (b *stackBackend) RestoreState(vals []int64)       { restoreState(b, op.Push, vals) }
