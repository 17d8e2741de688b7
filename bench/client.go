package main

//pimvet:allow-file determinism: the benchmark measures the host's wall clock by definition; its inputs stay seeded, only timing is physical

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"pimds/internal/harness"
	"pimds/internal/wire"
)

// client is one closed-loop connection and its result oracle.
//
// Connection idx draws only keys with (key>>1) mod nconns == idx, so
// owners are disjoint and each sees the half-full every-other-key
// preload. The same key always lands on the same shard, whose combiner
// is FIFO, so program order holds per key and the local bitmap predicts
// every contains/add/remove answer exactly. It speaks V2 request frames
// only — the superset encoding — so the instrument does not change when
// the older request encodings are deleted.
type client struct {
	w      *workload
	idx    int
	nconns int
	gen    *harness.Generator

	present []uint64 // bitmap over the key space; only owned keys are ever set
	count   int      // owned keys present

	// The frame in flight. want[i] is op i's expected OK; a scan's
	// expected own keys are scanKeys[scanOff[i]:scanOff[i+1]].
	ops      []wire.Op
	want     []bool
	answered []bool
	scanOff  []int
	scanKeys []int64
	base     uint64 // ID of ops[0]; IDs are consecutive
	pending  int

	attempted uint64
	failed    uint64

	nc         net.Conn // nil in the socket-less layer replay
	br         *bufio.Reader
	wbuf, rbuf []byte
	res        []wire.Result
	vals       []int64

	lat   []int64 // ns per frame round trip, the current window's exact samples
	spans []span  // client spans of sampled frames; recorded only when epoch is set
	epoch time.Time
}

func newClient(w *workload, idx, nconns int, seed int64) *client {
	c := &client{
		w: w, idx: idx, nconns: nconns,
		present:  make([]uint64, (w.keySpace+63)/64),
		ops:      make([]wire.Op, 0, preloadOps),
		want:     make([]bool, preloadOps),
		answered: make([]bool, preloadOps),
		scanOff:  make([]int, preloadOps+1),
		base:     1,
	}
	// The generator draws from the connection's share of the key space;
	// ownKey spreads that share over the keys this connection owns.
	dist := harness.Uniform{N: w.keySpace / int64(nconns)}
	c.gen = harness.NewGenerator(seed*1000003+int64(idx), dist, w.mix)
	return c
}

// ownKey maps a draw from [0, keySpace/nconns) onto the idx-th owner's
// keys, keeping the low bit so half of them are in the preload.
func (c *client) ownKey(k int64) int64 {
	return ((k>>1)*int64(c.nconns)+int64(c.idx))<<1 | k&1
}

func (c *client) owns(k int64) bool { return int(k>>1)%c.nconns == c.idx }
func (c *client) has(k int64) bool  { return c.present[k>>6]&(1<<uint(k&63)) != 0 }

func (c *client) set(k int64, on bool) {
	if on == c.has(k) {
		return
	}
	c.present[k>>6] ^= 1 << uint(k&63)
	if on {
		c.count++
	} else {
		c.count--
	}
}

// begin resets the frame state for n ops.
func (c *client) begin(n int) {
	c.base += uint64(len(c.ops))
	c.ops = c.ops[:0]
	c.scanKeys = c.scanKeys[:0]
	c.scanOff[0] = 0
	for i := 0; i < n; i++ {
		c.answered[i] = false
	}
	c.pending = n
}

// push appends one op and, applying it to the oracle in program order,
// the answer the server must give.
func (c *client) push(kind wire.OpKind, key int64) {
	i := len(c.ops)
	op := wire.Op{ID: c.base + uint64(i), Kind: kind, Key: key}
	switch kind {
	case wire.Contains:
		c.want[i] = c.has(key)
	case wire.Add:
		c.want[i] = !c.has(key)
		c.set(key, true)
	case wire.Remove:
		c.want[i] = c.has(key)
		c.set(key, false)
	case wire.RangeScan:
		op.Hi, op.Limit = key+c.w.scanSpan, c.w.scanLimit
		c.want[i] = true
		// Walk only the key pairs this connection owns.
		n, hi := int64(c.nconns), min(op.Hi, c.w.keySpace)
		pair := key >> 1
		for pair += (int64(c.idx) - pair%n + n) % n; pair<<1 < hi; pair += n {
			for k := pair << 1; k <= pair<<1|1; k++ {
				if k >= key && k < hi && c.has(k) {
					c.scanKeys = append(c.scanKeys, k)
				}
			}
		}
	}
	c.scanOff[i+1] = len(c.scanKeys)
	c.ops = append(c.ops, op)
}

var wireKinds = [...]wire.OpKind{
	harness.Contains: wire.Contains,
	harness.Add:      wire.Add,
	harness.Remove:   wire.Remove,
	harness.Scan:     wire.RangeScan,
}

// fill generates the next frameOps-op frame from the seeded stream.
func (c *client) fill() {
	c.begin(frameOps)
	for i := 0; i < frameOps; i++ {
		o := c.gen.Next()
		c.push(wireKinds[o.Kind], c.ownKey(o.Key))
	}
}

// verify checks one decoded response frame against the oracle. Every
// unexpected, duplicate, non-OK or wrong result counts as failed.
func (c *client) verify(results []wire.Result) {
	for _, r := range results {
		i := r.ID - c.base
		if i >= uint64(len(c.ops)) || c.answered[i] {
			c.failed++
			continue
		}
		c.answered[i] = true
		c.pending--
		if r.Status != wire.StatusOK || r.OK != c.want[i] || !c.scanOK(int(i), r) {
			c.failed++
		}
	}
}

// scanOK checks a range scan's keys: strictly ascending, inside
// [lo, cursor) ⊆ [lo, hi), at most limit of them, and — filtered to the
// keys this connection owns — exactly the oracle's keys below the
// cursor. Point results must carry no values.
func (c *client) scanOK(i int, r wire.Result) bool {
	op := c.ops[i]
	if op.Kind != wire.RangeScan {
		return len(r.Values) == 0
	}
	cursor := r.Value
	if cursor > op.Hi || len(r.Values) > int(op.Limit) {
		return false
	}
	want := c.scanKeys[c.scanOff[i]:c.scanOff[i+1]]
	prev := op.Key - 1
	for _, k := range r.Values {
		if k <= prev || k >= cursor {
			return false
		}
		prev = k
		if c.owns(k) {
			if len(want) == 0 || want[0] != k {
				return false
			}
			want = want[1:]
		}
	}
	return len(want) == 0 || want[0] >= cursor
}

// roundTrip sends the filled frame and reads response frames until every
// op is answered. Responses for one request frame may arrive split and
// in any order across shards, so results are matched by ID. A transport
// error fails every op still unanswered.
func (c *client) roundTrip(tc wire.TraceContext) error {
	c.attempted += uint64(len(c.ops))
	traced := tc.Sampled && !c.epoch.IsZero()
	start := time.Now()
	var err error
	if c.wbuf, err = wire.AppendRequestV2(c.wbuf[:0], c.ops, tc); err != nil {
		return c.abort(err)
	}
	var mark time.Time
	if traced {
		mark = c.span(tc.TraceID, "client.encode", start)
	}
	c.nc.SetDeadline(start.Add(ioTimeout))
	if _, err = c.nc.Write(c.wbuf); err != nil {
		return c.abort(err)
	}
	if traced {
		mark = c.span(tc.TraceID, "client.write_flush", mark)
	}
	for c.pending > 0 {
		payload, err := wire.ReadFrame(c.br, c.rbuf)
		if err != nil {
			return c.abort(err)
		}
		c.rbuf = payload[:0]
		if traced {
			mark = c.span(tc.TraceID, "client.wait", mark)
		}
		if c.res, c.vals, err = wire.DecodeResponseAny(payload, c.res[:0], c.vals[:0]); err != nil {
			return c.abort(err)
		}
		if traced {
			mark = c.span(tc.TraceID, "client.decode", mark)
		}
		c.verify(c.res)
		if traced {
			mark = c.span(tc.TraceID, "client.verify", mark)
		}
	}
	end := time.Now()
	c.lat = append(c.lat, int64(end.Sub(start)))
	if traced {
		c.spans = append(c.spans, span{TraceID: tc.TraceID, Name: rootSpan,
			StartNS: int64(start.Sub(c.epoch)), EndNS: int64(end.Sub(c.epoch))})
	}
	return nil
}

// ioTimeout bounds one frame's write and reads, so a wedged server
// fails the run instead of hanging it.
const ioTimeout = 30 * time.Second

func (c *client) abort(err error) error {
	c.failed += uint64(c.pending)
	c.pending = 0
	return fmt.Errorf("conn %d: %w", c.idx, err)
}

// span records one client span from `from` to now and returns now.
func (c *client) span(id uint64, name string, from time.Time) time.Time {
	now := time.Now()
	c.spans = append(c.spans, span{TraceID: id, Name: name,
		StartNS: int64(from.Sub(c.epoch)), EndNS: int64(now.Sub(c.epoch))})
	return now
}

// connect attaches the client to a live server.
func (c *client) connect(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return nil
}

// preload adds the connection's share of the every-other-key population
// through the wire, verifying each answer like any other op.
func (c *client) preload() error {
	var keys []int64
	for k := int64(0); k < c.w.keySpace; k += 2 {
		if c.owns(k) {
			keys = append(keys, k)
		}
	}
	for len(keys) > 0 {
		n := len(keys)
		if n > preloadOps {
			n = preloadOps
		}
		c.begin(n)
		for _, k := range keys[:n] {
			c.push(wire.Add, k)
		}
		if err := c.roundTrip(wire.TraceContext{}); err != nil {
			return err
		}
		keys = keys[n:]
	}
	c.lat = c.lat[:0]
	return nil
}

// run drives frames until the deadline. With trace set, every
// traceEvery-th frame carries a sampled trace context whose id names
// the connection and the frame.
func (c *client) run(deadline time.Time, trace bool) error {
	for n := uint64(0); time.Now().Before(deadline); n++ {
		c.fill()
		var tc wire.TraceContext
		if trace && n%traceEvery == 0 {
			tc = wire.TraceContext{TraceID: uint64(c.idx+1)<<48 | c.base, Sampled: true}
		}
		if err := c.roundTrip(tc); err != nil {
			return err
		}
	}
	return nil
}

func (c *client) close() {
	if c.nc != nil {
		c.nc.Close()
	}
}
