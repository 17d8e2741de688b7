package server

import (
	"reflect"
	"testing"
	"time"

	"pimds/internal/testenv"
	"pimds/internal/wal"
	"pimds/internal/wire"
)

// These tests pin the //pimvet:allocfree annotations on the server's
// combining window with the runtime's allocation counter: once the
// pass record and structure free lists are warm, a combine pass over
// a size-stable batch must not touch the heap — a GC pause inside
// applyBatch stalls every published op on the shard.

func skipIfRace(t *testing.T) {
	t.Helper()
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
}

// steadyBatch builds Remove→Add pairs over even keys: size-stable
// against a list preloaded with the same keys, so node free lists
// recycle perfectly.
func steadyBatch(n int) []wire.Op {
	ops := make([]wire.Op, 0, 2*n)
	for i := 0; i < n; i++ {
		k := int64(2 * i)
		ops = append(ops,
			wire.Op{ID: uint64(2 * i), Kind: wire.Remove, Key: k},
			wire.Op{ID: uint64(2*i + 1), Kind: wire.Add, Key: k},
		)
	}
	return ops
}

// pinRig is a one-shard server around a fresh backend, with the pass
// record New would have preallocated for it already gathered with ops.
func pinRig(t *testing.T, structure string, durable bool, ops []wire.Op) (*Server, *pass) {
	t.Helper()
	be, err := newBackend(structure, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: Config{}.withDefaults(), epoch: time.Now()}
	ps := newPass(&shard{be: be}, durable)
	ps.ops = append(ps.ops, ops...)
	ps.from = ps.from[:len(ops)]
	return s, ps
}

// preloadEven adds the even keys below 2n, so removals in a steady
// batch always find their node.
func preloadEven(be backend, n int) {
	pre := make([]wire.Op, n)
	for i := range pre {
		pre[i] = wire.Op{Kind: wire.Add, Key: int64(2 * i)}
	}
	be.ApplyBatch(pre, make([]wire.Result, n), nil)
}

// pinApply warms the pass and the structure's free lists, then pins
// applyBatch on the same pass at 0 allocs/op and checks every status.
func pinApply(t *testing.T, s *Server, ps *pass) {
	t.Helper()
	s.applyBatch(ps)
	avg := testing.AllocsPerRun(100, func() {
		s.applyBatch(ps)
	})
	if avg != 0 {
		t.Errorf("applyBatch steady state: %.1f allocs/op, want 0", avg)
	}
	for i := range ps.ops {
		if ps.results[i].Status != wire.StatusOK {
			t.Fatalf("op %d: status %v", i, ps.results[i].Status)
		}
	}
}

func TestApplyBatchAllocs(t *testing.T) {
	skipIfRace(t)
	for _, structure := range []string{StructList, StructQueue, StructStack} {
		t.Run(structure, func(t *testing.T) {
			var ops []wire.Op
			switch structure {
			case StructList:
				ops = steadyBatch(64)
			case StructQueue:
				for i := 0; i < 64; i++ {
					ops = append(ops, wire.Op{Kind: wire.Enqueue, Key: int64(i)}, wire.Op{Kind: wire.Dequeue})
				}
			case StructStack:
				for i := 0; i < 64; i++ {
					ops = append(ops, wire.Op{Kind: wire.Push, Key: int64(i)}, wire.Op{Kind: wire.Pop})
				}
			}
			s, ps := pinRig(t, structure, false, ops)
			if structure == StructList {
				preloadEven(ps.sh.be, 64)
			}
			pinApply(t, s, ps)
		})
	}
}

// TestApplyBatchDurableAllocs pins the window with a record being
// staged: applyBatch + stageRecord into a durable pass must not
// allocate, and the staged bytes must decode to exactly the pass's
// mutating ops, in pass order, under the shard's next sequence number.
func TestApplyBatchDurableAllocs(t *testing.T) {
	skipIfRace(t)
	var ops, mutating []wire.Op
	for i, op := range steadyBatch(32) {
		ops = append(ops, op, wire.Op{ID: uint64(1000 + i), Kind: wire.Contains, Key: op.Key})
		mutating = append(mutating, op)
	}
	s, ps := pinRig(t, StructList, true, ops)
	sh := ps.sh
	sh.idx = 3
	preloadEven(ps.sh.be, 32)
	pinApply(t, s, ps)

	seq := sh.walSeq
	s.applyBatch(ps)
	rec, n, err := wal.DecodeRecord(ps.rec, nil)
	if err != nil || n != len(ps.rec) {
		t.Fatalf("staged record: decoded %d of %d bytes, err %v", n, len(ps.rec), err)
	}
	if rec.Shard != 3 || rec.Seq != seq+1 || sh.walSeq != seq+1 {
		t.Fatalf("staged record is shard %d seq %d, shard now at seq %d; want shard 3, both at %d",
			rec.Shard, rec.Seq, sh.walSeq, seq+1)
	}
	if !reflect.DeepEqual(rec.Ops, mutating) {
		t.Fatalf("staged ops = %+v\nwant the pass's mutating ops in order: %+v", rec.Ops, mutating)
	}

	// A read-only pass stages nothing and leaves the sequence alone.
	ps.ops = append(ps.ops[:0], wire.Op{Kind: wire.Contains, Key: 2})
	ps.from = ps.from[:1]
	s.applyBatch(ps)
	if len(ps.rec) != 0 || sh.walSeq != seq+1 {
		t.Fatalf("read-only pass staged %d bytes, seq %d; want an empty record, seq still %d",
			len(ps.rec), sh.walSeq, seq+1)
	}
}

// TestApplyBatchOrderedAllocs pins the ordered combiner path: once the
// arena and sort scratch have grown to the batch's high-water mark, a
// pass mixing point ops, range scans and extremum pops must not
// allocate either — the scan values live in the shard arena, and the
// per-delivery copies happen outside the pinned window.
func TestApplyBatchOrderedAllocs(t *testing.T) {
	skipIfRace(t)
	// Size-stable mix: each round pops the extremes and re-adds them,
	// with scans and neighbor queries interleaved.
	s, ps := pinRig(t, StructList, false, []wire.Op{
		{ID: 1, Kind: wire.PopMin},
		{ID: 2, Kind: wire.PopMax},
		{ID: 3, Kind: wire.Add, Key: 0},
		{ID: 4, Kind: wire.Add, Key: 254},
		{ID: 5, Kind: wire.RangeScan, Key: 10, Hi: 90, Limit: 16},
		{ID: 6, Kind: wire.Pred, Key: 100},
		{ID: 7, Kind: wire.Succ, Key: 100},
		{ID: 8, Kind: wire.RangeScan, Key: 100, Hi: 200, Limit: 32},
		{ID: 9, Kind: wire.Contains, Key: 50},
	})
	preloadEven(ps.sh.be, 128)
	pinApply(t, s, ps)
	if n := len(ps.results[4].Values); n != 16 {
		t.Fatalf("scan returned %d values, want 16", n)
	}
}

func TestSampleHitAllocs(t *testing.T) {
	skipIfRace(t)
	c := &conn{rng: 0x9e3779b97f4a7c15}
	var hits int
	avg := testing.AllocsPerRun(1000, func() {
		if c.sampleHit(1 << 60) {
			hits++
		}
	})
	if avg != 0 {
		t.Errorf("sampleHit: %.1f allocs/op, want 0", avg)
	}
}

func TestSpanComponentsAllocs(t *testing.T) {
	skipIfRace(t)
	sp := &span{start: 1, pub: 2, pick: 3, applyStart: 4, applied: 5, enc: 6, flush: 7}
	var total int64
	avg := testing.AllocsPerRun(1000, func() {
		for _, v := range sp.components() {
			total += v
		}
	})
	if avg != 0 {
		t.Errorf("span.components: %.1f allocs/op, want 0", avg)
	}
}
