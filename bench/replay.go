package main

//pimvet:allow-file determinism: the benchmark measures the host's wall clock by definition; its inputs stay seeded, only timing is physical

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"time"

	"pimds/internal/cds/seqhash"
	"pimds/internal/cds/seqlist"
	"pimds/internal/cds/seqskip"
	"pimds/internal/server"
	"pimds/internal/wal"
	"pimds/internal/wire"
)

// The layer replay pushes the workload's own seeded frames through each
// layer's public functions on one goroutine, with a timed span around
// every call: request encode, ReadFrame+DecodeRequestAny, the sequential
// structure's batch apply at the batch size the traced run observed, WAL
// staging and append, AppendResponses, response decode, oracle verify.
// Nothing waits on anything, so Σ(layer cost per op) is the CPU the
// layers' own code needs; what cpu_us_per_op shows beyond it is the
// pipeline between the layers (channels, copies, sockets, scheduling).

// replayGroup frames are generated, then applied together, so a batch
// can be as large as the server's even though one frame's ops split
// across shards. Each frame of a group comes from its own oracle client
// owning a disjoint share of the keys.
const replayGroup = 16

// structure is one shard's sequential structure behind the translation
// the server's backends do (those are unexported; the cds packages'
// functions are the layer's public surface).
type structure interface {
	apply(ops []wire.Op, out []wire.Result, arena []int64) []int64
	steps() uint64
}

type hashShard struct{ t *seqhash.Table }

func (b hashShard) steps() uint64 { return b.t.Steps() }
func (b hashShard) apply(ops []wire.Op, out []wire.Result, arena []int64) []int64 {
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

type listShard struct {
	l   *seqlist.List
	ops []seqlist.Op
	oks []bool
}

func (b *listShard) steps() uint64 { return b.l.Steps() }
func (b *listShard) apply(ops []wire.Op, out []wire.Result, arena []int64) []int64 {
	b.ops = b.ops[:0]
	for _, op := range ops {
		kind := seqlist.Contains
		switch op.Kind {
		case wire.Add:
			kind = seqlist.Add
		case wire.Remove:
			kind = seqlist.Remove
		}
		b.ops = append(b.ops, seqlist.Op{Kind: kind, Key: op.Key})
	}
	if cap(b.oks) < len(ops) {
		b.oks = make([]bool, len(ops))
	}
	oks := b.oks[:len(ops)]
	b.l.ApplyBatchInto(b.ops, oks)
	for i, op := range ops {
		out[i] = wire.Result{ID: op.ID, Status: wire.StatusOK, OK: oks[i]}
	}
	return arena
}

type skipShard struct {
	l        *seqskip.List
	scanTime time.Duration
	scanKeys int
}

func (b *skipShard) steps() uint64 { return b.l.Steps() }
func (b *skipShard) apply(ops []wire.Op, out []wire.Result, arena []int64) []int64 {
	for i, op := range ops {
		r := wire.Result{ID: op.ID, Status: wire.StatusOK}
		switch op.Kind {
		case wire.Contains:
			r.OK = b.l.ContainsKey(op.Key)
		case wire.Add:
			r.OK = b.l.AddKey(op.Key)
		case wire.Remove:
			r.OK = b.l.RemoveKey(op.Key)
		case wire.RangeScan:
			t := time.Now()
			start, n := len(arena), 0
			arena, n, r.Value = b.l.RangeScanInto(op.Key, op.Hi, int(op.Limit), arena)
			b.scanTime += time.Since(t)
			b.scanKeys += n
			// The replay arena is sized so it never grows, which keeps
			// this segment valid without the server's second pass.
			r.Values, r.OK = arena[start:start+n:start+n], true
		}
		out[i] = r
	}
	return arena
}

func newStructure(w *workload, shard int) structure {
	switch w.structure {
	case server.StructHash:
		return hashShard{seqhash.New(1 << 10)}
	case server.StructList:
		return &listShard{l: seqlist.New()}
	}
	return &skipShard{l: seqskip.New(1 + uint64(shard)*0x9e3779b97f4a7c15)}
}

// replayGroups is a count, not a time budget, so that the replay's exact
// counts (steps, bytes) repeat for one seed and batch size.
var replayGroups = 1000

const groupOps = replayGroup * frameOps

// replayer holds one replay's state: the oracle clients and structures,
// the buffers every layer call reuses, and the time spent inside each
// layer's calls.
type replayer struct {
	w       *workload
	batch   int
	clients []*client
	shards  []structure
	log     *wal.Log // nil unless the workload is durable

	reqBufs, respBufs [][]byte // one per frame of the group
	rd                *bytes.Reader
	rbuf, rec         []byte
	decoded           []wire.Op
	shardOps          [][]wire.Op
	shardFrom         [][]int // group-wide index of each routed op
	out, results      []wire.Result
	arena, values     []int64
	res               []wire.Result
	vals              []int64

	gen, encReq, decReq, apply, stage, logAppend, encResp, decResp, verify time.Duration
	reqBytes, respBytes, batches, records                                  int
}

// lap returns the time elapsed since *t and moves *t to now: one clock
// read per span boundary.
func lap(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

func (r *replayer) shardOf(key int64) int { return int(key * int64(r.w.shards) / r.w.keySpace) }

func newReplayer(w *workload, seed int64, batch int) *replayer {
	r := &replayer{
		w: w, batch: max(batch, 1),
		clients:  make([]*client, replayGroup),
		shards:   make([]structure, w.shards),
		reqBufs:  make([][]byte, replayGroup),
		respBufs: make([][]byte, replayGroup),
		rd:       bytes.NewReader(nil),
		rec:      make([]byte, 0, wal.RecordCap(groupOps)),
		shardOps: make([][]wire.Op, w.shards), shardFrom: make([][]int, w.shards),
		out: make([]wire.Result, groupOps), results: make([]wire.Result, groupOps),
		arena:  make([]int64, 0, groupOps*int(w.scanLimit)),
		values: make([]int64, 0, groupOps*int(w.scanLimit)),
	}
	for g := range r.clients {
		r.clients[g] = newClient(w, g, replayGroup, seed)
	}
	preload := make([][]wire.Op, w.shards)
	for k := int64(0); k < w.keySpace; k += 2 {
		preload[r.shardOf(k)] = append(preload[r.shardOf(k)], wire.Op{Kind: wire.Add, Key: k})
		r.clients[int(k>>1)%replayGroup].set(k, true)
	}
	for s, adds := range preload {
		r.shards[s] = newStructure(w, s)
		for len(adds) > 0 {
			n := min(len(adds), preloadOps)
			r.shards[s].apply(adds[:n], r.out[:n], nil)
			adds = adds[n:]
		}
	}
	return r
}

func (r *replayer) steps() (n uint64) {
	for _, s := range r.shards {
		n += s.steps()
	}
	return
}

// readFrames decodes every frame in buf with decode, the wire layer's
// reader-side pair of calls.
func (r *replayer) readFrames(buf []byte, decode func(payload []byte) error) error {
	for r.rd.Reset(buf); r.rd.Len() > 0; {
		payload, err := wire.ReadFrame(r.rd, r.rbuf)
		if err != nil {
			return err
		}
		r.rbuf = payload[:0]
		if err := decode(payload); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) decodeRequest(payload []byte) (err error) {
	r.decoded, _, err = wire.DecodeRequestAny(payload, r.decoded[:0])
	return err
}

func (r *replayer) decodeResponse(payload []byte) (err error) {
	r.res, r.vals, err = wire.DecodeResponseAny(payload, r.res[:0], r.vals[:0])
	return err
}

// group pushes one group of frames through every layer.
func (r *replayer) group() (err error) {
	t := time.Now()
	for g, c := range r.clients {
		c.fill()
		c.attempted += frameOps
		r.gen += lap(&t)
		if r.reqBufs[g], err = wire.AppendRequestV2(r.reqBufs[g][:0], c.ops, wire.TraceContext{}); err != nil {
			return err
		}
		r.encReq += lap(&t)
		r.reqBytes += len(r.reqBufs[g])
	}
	for s := range r.shardOps {
		r.shardOps[s], r.shardFrom[s] = r.shardOps[s][:0], r.shardFrom[s][:0]
	}
	for g := range r.clients {
		t = time.Now()
		if err := r.readFrames(r.reqBufs[g], r.decodeRequest); err != nil {
			return err
		}
		r.decReq += lap(&t)
		for i, op := range r.decoded {
			s := r.shardOf(op.Key)
			// The server's reader clamps a scan to its owning shard.
			if upper := int64(s+1) * r.w.keySpace / int64(r.w.shards); op.Hi > upper {
				op.Hi = upper
			}
			r.shardOps[s] = append(r.shardOps[s], op)
			r.shardFrom[s] = append(r.shardFrom[s], g*frameOps+i)
		}
	}
	r.values = r.values[:0]
	for s, ops := range r.shardOps {
		// Even chunks as close to the observed batch size as this
		// shard's share of the group divides.
		n := max((len(ops)+r.batch/2)/r.batch, 1)
		for k := 0; k < n; k++ {
			lo, hi := k*len(ops)/n, (k+1)*len(ops)/n
			if lo < hi {
				if err := r.pass(s, ops[lo:hi], r.shardFrom[s][lo:hi]); err != nil {
					return err
				}
			}
		}
	}
	for g, c := range r.clients {
		t = time.Now()
		if r.respBufs[g], _, err = wire.AppendResponses(r.respBufs[g][:0], r.results[g*frameOps:(g+1)*frameOps]); err != nil {
			return err
		}
		r.encResp += lap(&t)
		r.respBytes += len(r.respBufs[g])
		err := r.readFrames(r.respBufs[g], func(payload []byte) error {
			if err := r.decodeResponse(payload); err != nil {
				return err
			}
			r.decResp += lap(&t)
			c.verify(r.res)
			r.verify += lap(&t)
			return nil
		})
		if err != nil {
			return err
		}
		c.failed += uint64(c.pending) // never answered
	}
	return nil
}

// pass is one combiner pass: apply the batch, stage and append its WAL
// record, and hand each result back to the frame it came from.
func (r *replayer) pass(shard int, ops []wire.Op, from []int) error {
	out := r.out[:len(ops)]
	t := time.Now()
	r.arena = r.shards[shard].apply(ops, out, r.arena[:0])
	r.apply += lap(&t)
	r.batches++
	if r.log != nil {
		r.rec = wal.BeginRecord(r.rec[:0], uint16(shard), uint64(r.records+1))
		muts := 0
		for _, op := range ops {
			if op.Kind.Mutating() {
				r.rec = wire.AppendOp(r.rec, op)
				muts++
			}
		}
		r.rec = wal.FinishRecord(r.rec, muts)
		r.stage += lap(&t)
		if len(r.rec) > 0 {
			if err := r.log.Append(r.rec); err != nil {
				return err
			}
			r.logAppend += lap(&t)
			r.records++
		}
	}
	// Scan values live in the pass arena; detach them, as the combiner
	// does, before the next pass reuses it.
	for i, res := range out {
		if res.Values != nil {
			at := len(r.values)
			r.values = append(r.values, res.Values...)
			res.Values = r.values[at:len(r.values):len(r.values)]
		}
		r.results[from[i]] = res
	}
	return nil
}

// codecAllocs counts heap allocations per frame of the wire layer alone:
// the four codec calls over the last group's frames, steady state.
func (r *replayer) codecAllocs() (float64, error) {
	const rounds = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		for g, c := range r.clients {
			var err error
			if r.reqBufs[g], err = wire.AppendRequestV2(r.reqBufs[g][:0], c.ops, wire.TraceContext{}); err != nil {
				return 0, err
			}
			if err = r.readFrames(r.reqBufs[g], r.decodeRequest); err != nil {
				return 0, err
			}
			if r.respBufs[g], _, err = wire.AppendResponses(r.respBufs[g][:0], r.results[g*frameOps:(g+1)*frameOps]); err != nil {
				return 0, err
			}
			if err = r.readFrames(r.respBufs[g], r.decodeResponse); err != nil {
				return 0, err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / (rounds * replayGroup), nil
}

// replayResult is what the layer replay measured.
type replayResult struct {
	metrics   map[string]float64
	nsPerOp   float64 // Σ layer cost per op
	nsPerStep float64 // the structure's cost per Steps() step: the model's L
	ops       uint64
	failed    uint64
}

// replay pushes `groups` groups of frames through the layers at the given
// combiner batch size.
func replay(w *workload, seed int64, batch, groups int) (*replayResult, error) {
	r := newReplayer(w, seed, batch)
	if w.durable {
		dir, err := tempDir("replay-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if r.log, err = wal.Open(dir, 0, true); err != nil {
			return nil, err
		}
		defer r.log.Close()
	}
	steps0 := r.steps()
	for n := 0; n < groups; n++ {
		if err := r.group(); err != nil {
			return nil, err
		}
	}
	steps := float64(r.steps() - steps0)
	allocs, err := r.codecAllocs()
	if err != nil {
		return nil, err
	}

	nops := float64(groups * groupOps)
	perOp := func(d time.Duration) float64 { return float64(d) / nops }
	out := &replayResult{
		nsPerOp:   perOp(r.gen + r.encReq + r.decReq + r.apply + r.stage + r.logAppend + r.encResp + r.decResp + r.verify),
		nsPerStep: float64(r.apply) / steps,
		metrics: map[string]float64{
			"wire.encode_req_ns_per_op":  perOp(r.encReq),
			"wire.decode_req_ns_per_op":  perOp(r.decReq),
			"wire.encode_resp_ns_per_op": perOp(r.encResp),
			"wire.decode_resp_ns_per_op": perOp(r.decResp),
			"wire.req_bytes_per_op":      float64(r.reqBytes) / nops,
			"wire.resp_bytes_per_op":     float64(r.respBytes) / nops,
			"wire.allocs_per_frame":      allocs,
			"cds.apply_ns_per_op":        perOp(r.apply),
			"cds.apply_ns_per_batch":     float64(r.apply) / float64(r.batches),
			"cds.steps_per_op":           steps / nops,
			"bench.client_ns_per_op":     perOp(r.gen + r.encReq + r.decResp + r.verify),
		},
	}
	m := out.metrics
	if w.mix.ScanPct > 0 {
		var scanTime time.Duration
		keys := 0
		for _, s := range r.shards {
			scanTime += s.(*skipShard).scanTime
			keys += s.(*skipShard).scanKeys
		}
		m["cds.scan_ns_per_key"] = float64(scanTime) / float64(keys)
	}
	if r.log != nil {
		m["wal.stage_ns_per_op"] = perOp(r.stage)
		m["wal.append_ns_per_record"] = float64(r.logAppend) / float64(r.records)
		if m["wal.sync_us"], err = syncMedian(r.log, r.rec); err != nil {
			return nil, err
		}
	}
	for _, c := range r.clients {
		out.ops += c.attempted
		out.failed += c.failed
	}
	return out, nil
}

// syncMedian is the device's cost of one group commit: the median
// Log.Sync after appending one record, in µs.
func syncMedian(log *wal.Log, rec []byte) (float64, error) {
	if len(rec) == 0 {
		rec = wal.AppendRecord(nil, 0, 1, []wire.Op{{Kind: wire.Add}})
	}
	if err := log.Sync(); err != nil {
		return 0, err
	}
	const rounds = 31
	us := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		if err := log.Append(rec); err != nil {
			return 0, err
		}
		t := time.Now()
		if err := log.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/1e3)
	}
	sort.Float64s(us)
	return us[rounds/2], nil
}
