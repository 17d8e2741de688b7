package server

import (
	"fmt"
	"sort"

	"pimds/internal/cds/seqhash"
	"pimds/internal/cds/seqlist"
	"pimds/internal/cds/seqskip"
	"pimds/internal/wire"
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
// implementation instead. Allocation is pinned at runtime: the list and
// skip structures recycle nodes from slabs and allocate only when a
// slab grows past its high-water mark, and the hash structure allocates
// one chain entry per successful add (TestApplyBatchAllocs,
// TestHashApplyBatchAllocs).
type backend interface {
	// ApplyBatch serves one combiner pass. len(out) == len(ops).
	ApplyBatch(ops []wire.Op, out []wire.Result, arena []int64) []int64
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
func restoreState(be backend, kind wire.OpKind, vals []int64) {
	const chunk = 512
	ops := make([]wire.Op, 0, chunk)
	out := make([]wire.Result, chunk)
	for len(vals) > 0 {
		n := len(vals)
		if n > chunk {
			n = chunk
		}
		ops = ops[:0]
		for _, v := range vals[:n] {
			ops = append(ops, wire.Op{Kind: kind, Key: v})
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
		return &listBackend{
			l:   seqlist.New(),
			ops: make([]seqlist.Op, 0, wire.MaxOpsPerFrame),
			oks: make([]bool, wire.MaxOpsPerFrame),
			res: make([]seqlist.OpResult, wire.MaxOpsPerFrame),
		}, nil
	case StructSkip:
		return &skipBackend{
			l:      seqskip.New(towerSeed + uint64(shard)*0x9e3779b97f4a7c15),
			starts: make([]int, wire.MaxOpsPerFrame),
			counts: make([]int, wire.MaxOpsPerFrame),
		}, nil
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

// listKinds maps wire kinds onto seqlist kinds; the numeric values
// diverge (the wire enum interleaves queue/stack kinds), so the
// translation is explicit.
var listKinds = [wire.NumKinds]seqlist.OpKind{
	wire.Contains:  seqlist.Contains,
	wire.Add:       seqlist.Add,
	wire.Remove:    seqlist.Remove,
	wire.RangeScan: seqlist.RangeScan,
	wire.Pred:      seqlist.Pred,
	wire.Succ:      seqlist.Succ,
	wire.PopMin:    seqlist.PopMin,
	wire.PopMax:    seqlist.PopMax,
}

// listBackend serves set ops on a sorted linked list, using the
// paper's combining optimization: the whole batch is sorted and served
// in one traversal. A batch of point ops takes the original
// ApplyBatchInto path; a batch containing ordered ops takes
// ApplyOrderedBatchInto, which shares a single finger walk between
// point ops, neighbor queries and range scans. ops/oks/res are
// preallocated at the frame cap so translation in and out of wire types
// allocates nothing.
type listBackend struct {
	l   *seqlist.List
	ops []seqlist.Op       // scratch
	oks []bool             // scratch (point-only path)
	res []seqlist.OpResult // scratch (ordered path)
}

//pimvet:nopark
func (b *listBackend) ApplyBatch(ops []wire.Op, out []wire.Result, arena []int64) []int64 {
	b.ops = b.ops[:0]
	ordered := false
	for _, op := range ops {
		b.ops = append(b.ops, seqlist.Op{
			Kind: listKinds[op.Kind], Key: op.Key, Hi: op.Hi, Limit: int(op.Limit),
		})
		if op.Kind.Ordered() {
			ordered = true
		}
	}
	if !ordered {
		oks := b.oks[:len(ops)]
		b.l.ApplyBatchInto(b.ops, oks)
		for i, op := range ops {
			out[i] = wire.Result{ID: op.ID, Status: wire.StatusOK, OK: oks[i]}
		}
		return arena
	}
	res := b.res[:len(ops)]
	arena = b.l.ApplyOrderedBatchInto(b.ops, res, arena)
	for i, op := range ops {
		r := res[i]
		out[i] = wire.Result{ID: op.ID, Status: wire.StatusOK, OK: r.OK, Value: r.Value}
		if r.Scan {
			// Slice after the whole batch ran: the arena cannot grow
			// (and move) under an already-taken segment anymore.
			out[i].Values = arena[r.Start : r.Start+r.N : r.Start+r.N]
		}
	}
	return arena
}

func (b *listBackend) Len() int { return b.l.Len() }

func (b *listBackend) AppendState(dst []int64) []int64 { return append(dst, b.l.Keys()...) }
func (b *listBackend) RestoreState(vals []int64)       { restoreState(b, wire.Add, vals) }

// skipBackend serves set ops on a sequential skip-list, applying the
// batch in publication order (any serialization of a concurrent batch
// is linearizable). Nodes and towers come from seqskip's slabs, so a
// size-stable pass allocates nothing. starts/counts park each scan's
// arena segment until the batch is done and the arena has stopped
// moving.
type skipBackend struct {
	l      *seqskip.List
	starts []int // scratch: scan arena offsets by op index
	counts []int // scratch: scan cardinalities by op index
}

//pimvet:nopark
func (b *skipBackend) ApplyBatch(ops []wire.Op, out []wire.Result, arena []int64) []int64 {
	scans := false
	for i, op := range ops {
		r := wire.Result{ID: op.ID, Status: wire.StatusOK}
		switch op.Kind {
		case wire.Contains:
			r.OK = b.l.ContainsKey(op.Key)
		case wire.Add:
			r.OK = b.l.AddKey(op.Key)
		case wire.Remove:
			r.OK = b.l.RemoveKey(op.Key)
		case wire.Pred:
			r.Value, r.OK = b.l.PredKey(op.Key)
		case wire.Succ:
			r.Value, r.OK = b.l.SuccKey(op.Key)
		case wire.PopMin:
			r.Value, r.OK = b.l.PopMinKey()
		case wire.PopMax:
			r.Value, r.OK = b.l.PopMaxKey()
		case wire.RangeScan:
			b.starts[i] = len(arena)
			arena, b.counts[i], r.Value = b.l.RangeScanInto(op.Key, op.Hi, int(op.Limit), arena)
			r.OK = true
			scans = true
		}
		out[i] = r
	}
	if scans {
		for i, op := range ops {
			if op.Kind == wire.RangeScan {
				out[i].Values = arena[b.starts[i] : b.starts[i]+b.counts[i] : b.starts[i]+b.counts[i]]
			}
		}
	}
	return arena
}

func (b *skipBackend) Len() int { return b.l.Len() }

func (b *skipBackend) AppendState(dst []int64) []int64 { return append(dst, b.l.Keys()...) }
func (b *skipBackend) RestoreState(vals []int64)       { restoreState(b, wire.Add, vals) }

// hashBackend serves set ops on a chained hash table (keys only; the
// stored value mirrors the key). Puts allocate chain entries and the
// table doubles as it fills (justified exemptions inside seqhash).
type hashBackend struct {
	t *seqhash.Table
}

//pimvet:nopark
func (b *hashBackend) ApplyBatch(ops []wire.Op, out []wire.Result, arena []int64) []int64 {
	for i, op := range ops {
		var ok bool
		switch op.Kind {
		case wire.Contains:
			_, ok = b.t.Get(op.Key)
		case wire.Add:
			ok = b.t.Put(op.Key, op.Key)
		case wire.Remove:
			ok = b.t.Delete(op.Key)
		}
		out[i] = wire.Result{ID: op.ID, Status: wire.StatusOK, OK: ok}
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

func (b *hashBackend) RestoreState(vals []int64) { restoreState(b, wire.Add, vals) }

// queueBackend is a FIFO queue over a growable ring buffer. Enqueue
// always succeeds (OK=true); Dequeue reports OK=false on empty.
type queueBackend struct {
	buf        []int64
	head, size int
}

//pimvet:nopark
func (b *queueBackend) ApplyBatch(ops []wire.Op, out []wire.Result, arena []int64) []int64 {
	for i, op := range ops {
		switch op.Kind {
		case wire.Enqueue:
			b.push(op.Key)
			out[i] = wire.Result{ID: op.ID, Status: wire.StatusOK, OK: true}
		case wire.Dequeue:
			v, ok := b.pop()
			out[i] = wire.Result{ID: op.ID, Status: wire.StatusOK, OK: ok, Value: v}
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

func (b *queueBackend) RestoreState(vals []int64) { restoreState(b, wire.Enqueue, vals) }

// stackBackend is a LIFO stack over a slice. Pop reports OK=false on
// empty. Pushes append into receiver storage: amortized growth to the
// high-water depth, then allocation-free.
type stackBackend struct {
	vals []int64
}

//pimvet:nopark
func (b *stackBackend) ApplyBatch(ops []wire.Op, out []wire.Result, arena []int64) []int64 {
	for i, op := range ops {
		switch op.Kind {
		case wire.Push:
			b.vals = append(b.vals, op.Key)
			out[i] = wire.Result{ID: op.ID, Status: wire.StatusOK, OK: true}
		case wire.Pop:
			if n := len(b.vals); n > 0 {
				out[i] = wire.Result{ID: op.ID, Status: wire.StatusOK, OK: true, Value: b.vals[n-1]}
				b.vals = b.vals[:n-1]
			} else {
				out[i] = wire.Result{ID: op.ID, Status: wire.StatusOK}
			}
		}
	}
	return arena
}

func (b *stackBackend) Len() int { return len(b.vals) }

// AppendState dumps bottom→top, so restoring by Push rebuilds the same
// stack.
func (b *stackBackend) AppendState(dst []int64) []int64 { return append(dst, b.vals...) }
func (b *stackBackend) RestoreState(vals []int64)       { restoreState(b, wire.Push, vals) }
