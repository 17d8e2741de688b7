package server

import (
	"reflect"
	"testing"
	"time"

	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/testenv"
	"pimds/internal/wal"
)

// These tests pin the server's combining window allocation-free with
// the runtime's allocation counter: once the
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
func steadyBatch(n int) []op.Op {
	ops := make([]op.Op, 0, 2*n)
	for i := 0; i < n; i++ {
		k := int64(2 * i)
		ops = append(ops,
			op.Op{ID: uint64(2 * i), Kind: op.Remove, Key: k},
			op.Op{ID: uint64(2*i + 1), Kind: op.Add, Key: k},
		)
	}
	return ops
}

// pinRig is a one-shard server around a fresh backend, with the pass
// record New would have preallocated for it already gathered with ops.
func pinRig(t *testing.T, structure string, durable bool, ops []op.Op) (*Server, *pass) {
	t.Helper()
	be, err := newBackend(structure, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: Config{}.withDefaults(), epoch: time.Now()}
	ps := newPass(&shard{be: be}, durable)
	ps.ops = append(ps.ops, ops...)
	return s, ps
}

// preloadEven adds the even keys below 2n, so removals in a steady
// batch always find their node.
func preloadEven(be backend, n int) {
	pre := make([]op.Op, n)
	for i := range pre {
		pre[i] = op.Op{Kind: op.Add, Key: int64(2 * i)}
	}
	be.ApplyBatch(pre, make([]op.Result, n), nil)
}

// pinApply warms the pass and the structure's free lists, then pins
// applyBatch on the same pass at 0 allocs/op and checks every status.
func pinApply(t *testing.T, s *Server, ps *pass) {
	t.Helper()
	s.applyBatch(ps)
	allocs := testenv.Allocs(100, func() {
		s.applyBatch(ps)
	})
	if allocs != 0 {
		t.Errorf("applyBatch steady state: %d allocs, want 0", allocs)
	}
	for i := range ps.ops {
		if ps.results[i].Status != op.StatusOK {
			t.Fatalf("op %d: status %v", i, ps.results[i].Status)
		}
	}
}

func TestApplyBatchAllocs(t *testing.T) {
	skipIfRace(t)
	for _, structure := range []string{StructList, StructSkip, StructQueue, StructStack} {
		t.Run(structure, func(t *testing.T) {
			var ops []op.Op
			switch structure {
			case StructList, StructSkip:
				ops = steadyBatch(64)
			case StructQueue:
				for i := 0; i < 64; i++ {
					ops = append(ops, op.Op{Kind: op.Enqueue, Key: int64(i)}, op.Op{Kind: op.Dequeue})
				}
			case StructStack:
				for i := 0; i < 64; i++ {
					ops = append(ops, op.Op{Kind: op.Push, Key: int64(i)}, op.Op{Kind: op.Pop})
				}
			}
			s, ps := pinRig(t, structure, false, ops)
			if structure == StructList || structure == StructSkip {
				preloadEven(ps.sh.be, 64)
			}
			pinApply(t, s, ps)
		})
	}
}

// TestHashApplyBatchAllocs pins the hash backend allocation-free: a
// churn batch of Remove→Add pairs over preloaded keys, with a lookup per
// pair, reuses each removed chain entry for the add that follows it.
func TestHashApplyBatchAllocs(t *testing.T) {
	skipIfRace(t)
	var ops []op.Op
	for i, o := range steadyBatch(32) {
		ops = append(ops, o)
		if o.Kind == op.Add {
			ops = append(ops, op.Op{ID: uint64(1000 + i), Kind: op.Contains, Key: o.Key})
		}
	}
	s, ps := pinRig(t, StructHash, false, ops)
	preloadEven(ps.sh.be, 32)
	s.applyBatch(ps)
	allocs := testenv.Allocs(100, func() {
		s.applyBatch(ps)
	})
	if allocs != 0 {
		t.Errorf("hash applyBatch steady state: %d allocs over 100 passes, want 0", allocs)
	}
	for i, o := range ops {
		if r := ps.results[i]; r.Status != op.StatusOK || !r.OK {
			t.Fatalf("op %d (%+v): result %+v, want OK", i, o, r)
		}
	}
}

// TestApplyBatchDurableAllocs pins the window with a record being
// staged: applyBatch + stageRecord into a durable pass must not
// allocate, and the staged bytes must decode to exactly the pass's
// mutating ops, in pass order, under the shard's next sequence number.
func TestApplyBatchDurableAllocs(t *testing.T) {
	skipIfRace(t)
	var ops, mutating []op.Op
	for i, o := range steadyBatch(32) {
		ops = append(ops, o, op.Op{ID: uint64(1000 + i), Kind: op.Contains, Key: o.Key})
		mutating = append(mutating, o)
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
	ps.ops = append(ps.ops[:0], op.Op{Kind: op.Contains, Key: 2})
	s.applyBatch(ps)
	if len(ps.rec) != 0 || sh.walSeq != seq+1 {
		t.Fatalf("read-only pass staged %d bytes, seq %d; want an empty record, seq still %d",
			len(ps.rec), sh.walSeq, seq+1)
	}
}

// TestApplyBatchOrderedAllocs pins the ordered combiner path: once the
// arena and sort scratch have grown to the batch's high-water mark, a
// pass mixing point ops, range scans and extremum pops must not
// allocate either — the scan values live in the pass arena, and the
// copies into the frames happen in release, outside the pinned window.
func TestApplyBatchOrderedAllocs(t *testing.T) {
	skipIfRace(t)
	for _, structure := range []string{StructList, StructSkip} {
		t.Run(structure, func(t *testing.T) {
			// Size-stable mix: each round pops the extremes and
			// re-adds them, with scans and neighbor queries
			// interleaved.
			s, ps := pinRig(t, structure, false, []op.Op{
				{ID: 1, Kind: op.PopMin},
				{ID: 2, Kind: op.PopMax},
				{ID: 3, Kind: op.Add, Key: 0},
				{ID: 4, Kind: op.Add, Key: 254},
				{ID: 5, Kind: op.RangeScan, Key: 10, Hi: 90, Limit: 16},
				{ID: 6, Kind: op.Pred, Key: 100},
				{ID: 7, Kind: op.Succ, Key: 100},
				{ID: 8, Kind: op.RangeScan, Key: 100, Hi: 200, Limit: 32},
				{ID: 9, Kind: op.Contains, Key: 50},
			})
			preloadEven(ps.sh.be, 128)
			pinApply(t, s, ps)
			if n := len(ps.results[4].Values); n != 16 {
				t.Fatalf("scan returned %d values, want 16", n)
			}
		})
	}
}

// TestCombinePassMetricsAllocs pins a whole combiner pass on a server
// with a live registry and window: the shard's own combineLoop gathers
// a published slot, runs applyBatch, updates the shard's counters and
// its batch and scan histograms, and releases the frame, which
// observes the latency histogram. A window rotation — which snapshots
// every metric the pass touches — runs between pinned rounds; no round
// may allocate.
func TestCombinePassMetricsAllocs(t *testing.T) {
	skipIfRace(t)
	reg := obs.NewRegistry()
	s, err := New(Config{Structure: StructSkip, Shards: 1, KeySpace: 1 << 10, Reg: reg, WindowTick: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	sh := s.shards[0]
	preloadEven(sh.be, 64) // before the first slot: the send orders it before the combiner's reads

	c := &conn{out: make(chan *frame, 1), free: make(chan *frame, 1), next: make([]int, 2)}
	f := c.record()
	f.ops = append(steadyBatch(64), op.Op{ID: 1000, Kind: op.RangeScan, Key: 0, Hi: 64, Limit: 16})
	f.results = make([]op.Result, len(f.ops))
	pass := func() {
		f.left.Store(1)
		c.inflight.Add(1)
		sh.in <- slot{f: f, hi: len(f.ops)}
		<-c.out
	}
	const rounds, runs = 5, 20
	for r := 0; r < rounds; r++ {
		s.rotateOnce()
		if allocs := testenv.Allocs(runs, pass); allocs != 0 {
			t.Errorf("round %d: combine pass with live metrics: %d allocs over %d passes, want 0", r, allocs, runs)
		}
	}
	if n := len(f.results[len(f.ops)-1].Values); n != 16 {
		t.Fatalf("scan returned %d values, want 16", n)
	}
	snap := reg.Snapshot()
	passes := uint64(rounds * 2 * runs) // Allocs warms up with as many calls as it measures
	if got := snap.Counters["server/shard/000/combines"]; got != passes {
		t.Errorf("combines = %d, want %d", got, passes)
	}
	if got := snap.Histograms["server/shard/000/scan_batch"].Count; got != passes {
		t.Errorf("scan_batch observations = %d, want %d", got, passes)
	}
	if got := len(s.win.History().Samples); got != rounds {
		t.Errorf("window holds %d samples, want %d", got, rounds)
	}
}

// TestPublishAllocs pins partition-and-publish: a warm frame record
// takes a decoded 64-op frame across two shards — validation, scan
// clamping, the stable counting sort, an in-place rejection and one
// slot per shard — without touching the heap, and every slot holds
// exactly its shard's ops in frame order.
func TestPublishAllocs(t *testing.T) {
	skipIfRace(t)
	caps, _ := LookupCapability(StructSkip)
	s := &Server{cfg: Config{Structure: StructSkip, Shards: 2, KeySpace: 1 << 10}.withDefaults(), caps: caps}
	for i := 0; i < 2; i++ {
		s.shards = append(s.shards, &shard{idx: i, in: make(chan slot, 1)})
	}
	c := &conn{id: 1, out: make(chan *frame, 2), free: make(chan *frame, 2), next: make([]int, 3)}
	var ops []op.Op
	for i := 0; i < 64; i++ {
		o := op.Op{ID: uint64(i), Kind: op.Kind(i % 3), Key: int64(i * 37 % 1024)}
		switch {
		case i%8 == 5:
			o = op.Op{ID: uint64(i), Kind: op.RangeScan, Key: o.Key, Hi: o.Key + 64, Limit: 16}
		case i == 63:
			o.Key = 1 << 10 // out of the key space: answered in place
		}
		ops = append(ops, o)
	}
	f := c.record()
	publish := func() (slot, slot) {
		s.publish(f, ops, 0, 0)
		defer c.inflight.Done()
		return <-s.shards[0].in, <-s.shards[1].in
	}
	sl0, sl1 := publish()
	at := 0
	for b, sl := range []slot{sl0, sl1} {
		if sl.f != f || sl.lo != at {
			t.Fatalf("shard %d slot %+v, want frame %p from %d", b, sl, f, at)
		}
		prev := uint64(0)
		for _, o := range f.ops[sl.lo:sl.hi] {
			if s.shardFor(o.Key).idx != b || o.ID < prev {
				t.Fatalf("shard %d slot holds op %+v out of place", b, o)
			}
			prev = o.ID
		}
		at = sl.hi
	}
	if at != 63 || f.results[63].Status != op.StatusBadKey || f.left.Load() != 2 {
		t.Fatalf("slots end at %d, last result %+v, %d slots left; want 63, a bad-key answer, 2",
			at, f.results[63], f.left.Load())
	}
	allocs := testenv.Allocs(100, func() { publish() })
	if allocs != 0 {
		t.Errorf("publish steady state: %d allocs, want 0", allocs)
	}
}

func TestSampleHitAllocs(t *testing.T) {
	skipIfRace(t)
	c := &conn{rng: 0x9e3779b97f4a7c15}
	var hits int
	allocs := testenv.Allocs(1000, func() {
		if c.sampleHit(1 << 60) {
			hits++
		}
	})
	if allocs != 0 {
		t.Errorf("sampleHit: %d allocs, want 0", allocs)
	}
}

func TestSpanComponentsAllocs(t *testing.T) {
	skipIfRace(t)
	sp := &span{start: 1, pub: 2, pick: 3, applyStart: 4, applied: 5, enc: 6, flush: 7}
	var total int64
	allocs := testenv.Allocs(1000, func() {
		for _, v := range sp.components() {
			total += v
		}
	})
	if allocs != 0 {
		t.Errorf("span.components: %d allocs, want 0", allocs)
	}
}
