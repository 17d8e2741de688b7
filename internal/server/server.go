// Package server is the networked data-structure server behind
// cmd/pimserve: it owns one sequential structure per shard and serves
// set/queue/stack operations over the wire protocol to many TCP
// clients at once.
//
// The concurrency design is flat combining (Hendler et al., SPAA
// 2010) transplanted onto a server: per-connection reader goroutines
// decode request frames and *publish* each frame as one slot per shard
// it touches into a bounded per-shard queue (the publication list), and
// a single combiner goroutine per shard drains whole batches of slots
// and executes them against the shard's sequential structure — no locks
// on the structures, one execution context per shard, exactly the
// pattern the paper's PIM structures use with one PIM core per vault.
// Synchronisation is paid per frame, not per op: one publish per
// (frame, shard), one completion and one response frame per request
// frame. Backpressure is structural: when a shard queue fills or a
// connection runs out of frame records, readers block, stop draining
// their sockets, and TCP pushes back on the clients.
//
// Shutdown is a drain, not an abort: accepted operations are executed
// and their responses flushed before connections close, so no
// acknowledged operation is ever lost (the e2e tests assert this).
package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/wal"
	"pimds/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Structure selects the data structure: list, skip, hash (sets
	// keyed in [0, KeySpace)), queue or stack.
	Structure string

	// Shards is the number of independent combiner shards. Sets are
	// range-partitioned across shards (shard i owns keys
	// [i·KeySpace/Shards, (i+1)·KeySpace/Shards)), mirroring the
	// paper's partitioned skip-list; queue and stack are inherently
	// serial and require Shards == 1. Default 1.
	Shards int

	// KeySpace is the exclusive key bound for set structures; keys
	// outside [0, KeySpace) get StatusBadKey. Default 1<<16.
	KeySpace int64

	// QueueDepth is the capacity of each shard's publication queue, in
	// (frame, shard) slots, and sizes each connection's frame records:
	// a connection holds at most max(2, QueueDepth/16) decoded frames
	// not yet answered. A full shard queue or an exhausted record pool
	// blocks the reader (backpressure). Default 1024; negative is an
	// error.
	QueueDepth int

	// IdleTimeout closes connections with no complete frame for this
	// long. Zero disables the deadline.
	IdleTimeout time.Duration

	// WriteTimeout bounds one response-frame write to a slow client;
	// on expiry the connection is marked failed and its remaining
	// responses are discarded so combiners never stall on a dead peer.
	// Default 30s.
	WriteTimeout time.Duration

	// TraceSample is the fraction of request frames ([0, 1]) the server
	// samples for span recording on its own initiative. Zero traces
	// nothing locally, but clients can still force individual frames
	// into the sample via their trace context's Sampled bit. Sampling is
	// decided per frame in the reader with a per-connection generator,
	// so the unsampled fast path costs one comparison.
	TraceSample float64

	// TraceRing is the per-shard capacity of the finished-span ring
	// buffers behind TraceSpans and the ops endpoint's /trace export.
	// Default 256.
	TraceRing int

	// SlowThreshold, when positive, logs every sampled request whose
	// end-to-end latency meets it into the slow-request log (bounded,
	// most recent kept) served at the ops endpoint's /slow.
	SlowThreshold time.Duration

	// Reg receives server metrics (nil disables instrumentation).
	Reg *obs.Registry

	// WindowTick enables windowed metrics and the health verdict: a
	// dedicated ticker goroutine rotates Reg's state into a ring of the
	// last 60 delta samples every WindowTick and re-grades the health
	// rules on each rotation. Zero disables the window: /metrics/history
	// serves an empty history and /healthz reports only recovery and
	// drain state.
	WindowTick time.Duration

	// Log, when non-nil, records every applied operation for
	// linearizability checking (testing/auditing only).
	Log *OpLog

	// WALDir enables durability: every combiner pass's mutating ops
	// are staged as one write-ahead-log record inside the combining
	// window, and the pass's acks are released only after the record
	// is durable under the Fsync policy. On start the server restores
	// the newest snapshot in the directory, replays the log tail, and
	// holds /healthz at "recovering" until done. Empty disables the
	// WAL entirely.
	WALDir string

	// Fsync selects when WAL records reach stable storage: FsyncBatch
	// (per writer pass — the default) or FsyncOff (kernel only).
	// Meaningful only with WALDir.
	Fsync string

	// SnapshotEvery, when positive, takes a periodic snapshot of every
	// shard's state and truncates the log behind it. Zero snapshots
	// only at clean shutdown. Meaningful only with WALDir.
	SnapshotEvery time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.Fsync == "" {
		c.Fsync = FsyncBatch
	}
	return c
}

// frame is one request frame from decode to response, in a record the
// connection reuses: the reader routes the ops in, each shard's release
// copies its slot's results back, and the writer encodes it as one
// response and returns the record to the connection's free list.
type frame struct {
	c       *conn
	ops     []op.Op      // the frame's ops grouped by shard, rejected ops last
	results []op.Result  // results[i] answers ops[i]
	spans   []*span      // spans[i] traces ops[i]; empty unless the frame is sampled
	vals    [][]int64    // scan values, an arena per shard that only its release appends to
	start   int64        // decode stamp, every op's start (ns since server epoch)
	left    atomic.Int32 // slots not yet released
}

// slot is one (frame, shard) publication record: f.ops[lo:hi], every
// op of the frame that one shard owns.
type slot struct {
	f      *frame
	lo, hi int
}

// spans returns the slot's op spans, nil when the frame is unsampled.
func (sl slot) spans() []*span {
	if len(sl.f.spans) == 0 {
		return nil
	}
	return sl.f.spans[sl.lo:sl.hi]
}

// pass is the one record of a combiner pass, from gather to ack: the
// combiner gathers into it, applies into it and, when durable, stages
// the WAL record into it, and whoever releases the acks — the combiner
// in memory, the WAL writer after the covering fsync — is handed this
// same pointer, so nothing is copied in between. Preallocated by
// newPass; a pass allocates nothing.
//
// A pass carrying only fn is a WAL-writer control item: fn runs on the
// writer after everything before it is synced and acked (snapshots use
// this to roll segments at a known point in the commit order).
type pass struct {
	sh      *shard      // owner, whose free list the pass returns to
	ops     []op.Op     // gathered ops, the slice the backend consumes
	slots   []slot      // the slots ops were gathered from, in order
	results []op.Result // results[i] answers ops[i]
	arena   []int64     // scan values results reference, reused by the next gather
	traced  bool        // some op in the pass carries a span
	end     int64       // apply-completion stamp
	rec     []byte      // staged WAL record, empty when nothing mutated; nil in memory
	fn      func()      // control item body; nothing else is set
}

// conn is one client connection. The reader publishes frames and
// tracks them in inflight; the release completing a frame sends it on
// out; the writer answers it and recycles the record through free. out
// is closed only after the reader has exited and every inflight frame
// has been completed, which is what makes drain
// lossless. Both channels fit every record, so neither send blocks.
type conn struct {
	id   int
	nc   net.Conn
	out  chan *frame // completed frames, for the writer
	free chan *frame // answered frame records, for the reader

	// reader goroutine only
	rng   uint64  // trace-sampling xorshift64 state
	made  int     // frame records made so far, at most cap(free)
	route []int32 // route[i]: the bucket of the frame's i-th decoded op
	next  []int   // per-bucket counts, then next free index; bucket len(shards) is rejected ops

	inflight sync.WaitGroup
	failed   atomic.Bool // writer hit an error; discard further output
}

// record returns a frame record, making one only when none is free and
// fewer than cap(free) exist; past that the reader waits for the writer
// to answer one — the connection's backpressure.
func (c *conn) record() *frame {
	if len(c.free) == 0 && c.made < cap(c.free) {
		c.made++
		return &frame{c: c, vals: make([][]int64, len(c.next)-1)} // one arena per shard
	}
	return <-c.free
}

// sampleHit advances the connection's private xorshift64 state and
// reports whether this frame falls inside the sample. Only the reader
// goroutine calls it, so the state needs no synchronization; the
// unsampled path is three shifts and a compare, no allocation — this is
// the per-frame cost tracing adds to untraced traffic, so it is pinned.
//
//pimvet:nopark
func (c *conn) sampleHit(threshold uint64) bool {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x <= threshold
}

// Server is one pimserve instance. Create with New, run with Serve,
// stop with Shutdown.
type Server struct {
	cfg    Config
	caps   Capability
	shards []*shard
	epoch  time.Time
	tr     *tracer

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{} // live connections; a conn leaves when its writer exits
	draining atomic.Bool

	readers   sync.WaitGroup
	shardWG   sync.WaitGroup
	writers   sync.WaitGroup
	drainDone chan struct{}
	shutdown  sync.Once
	connSeq   atomic.Int64

	// durability (nil/false when Config.WALDir is empty)
	wal        *walState
	walOnce    sync.Once
	recovering atomic.Bool

	// windowed metrics + health (nil/idle when Config.WindowTick is 0)
	win        *obs.Window
	healthMu   sync.Mutex
	rules      []RuleResult // graded at the last rotation
	windowStop chan struct{}
	windowDone chan struct{}

	// metrics (nil-safe through obs)
	connsOpen  *obs.Gauge
	connsTotal *obs.Counter
	framesIn   *obs.Counter
	framesOut  *obs.Counter
	opsTotal   *obs.Counter
	opsBad     *obs.Counter
	opLatency  *obs.Histogram
}

// shard is one combiner: a bounded publication queue plus the
// sequential structure only its loop touches. free holds the shard's
// pass records — one in memory, two when durable — between release and
// the next gather; a combiner whose WAL writer holds both blocks on it,
// the same structural backpressure the publication queues apply.
type shard struct {
	idx  int
	in   chan slot
	be   backend
	free chan *pass

	// durability (combiner goroutine only; nil/zero when the WAL is off)
	walSeq uint64      // sequence of the last staged record
	ctl    chan func() // combiner-context control (snapshot dumps)

	batchSize  *obs.Histogram
	queueDepth *obs.Gauge // slots waiting in in, not ops
	combines   *obs.Counter
	scanBatch  *obs.Histogram
}

// New builds a server from cfg.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("server: shards must be ≥ 1, got %d", cfg.Shards)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("server: queue depth must be ≥ 0 (0 = default 1024), got %d", cfg.QueueDepth)
	}
	if (cfg.Structure == StructQueue || cfg.Structure == StructStack) && cfg.Shards != 1 {
		return nil, fmt.Errorf("server: structure %q is inherently serial; use shards=1, got %d", cfg.Structure, cfg.Shards)
	}
	if cfg.KeySpace < int64(cfg.Shards) {
		return nil, fmt.Errorf("server: key space %d smaller than %d shards", cfg.KeySpace, cfg.Shards)
	}
	caps, ok := LookupCapability(cfg.Structure)
	if !ok {
		return nil, fmt.Errorf("server: unknown structure %q (want %s)",
			cfg.Structure, strings.Join(Structures(), "|"))
	}
	s := &Server{
		cfg:       cfg,
		caps:      caps,
		epoch:     time.Now(),
		conns:     make(map[*conn]struct{}),
		drainDone: make(chan struct{}),

		connsOpen:  cfg.Reg.Gauge("server/conns/open"),
		connsTotal: cfg.Reg.Counter("server/conns/total"),
		framesIn:   cfg.Reg.Counter("server/frames/in"),
		framesOut:  cfg.Reg.Counter("server/frames/out"),
		opsTotal:   cfg.Reg.Counter("server/ops/total"),
		opsBad:     cfg.Reg.Counter("server/ops/rejected"),
		opLatency:  cfg.Reg.Histogram("server/op_latency_ns"),
	}
	s.tr = newTracer(cfg, s.epoch)
	if cfg.WALDir != "" {
		w, err := newWALState(cfg)
		if err != nil {
			return nil, err
		}
		s.wal = w
		// Not ready until Serve's recovery pass completes: /healthz
		// reports "recovering" (503) from the very first scrape.
		s.recovering.Store(true)
	}
	for i := 0; i < cfg.Shards; i++ {
		be, err := newBackend(cfg.Structure, i)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			idx:        i,
			in:         make(chan slot, cfg.QueueDepth),
			be:         be,
			batchSize:  cfg.Reg.Histogram(fmt.Sprintf("server/shard/%03d/batch_size", i)),
			queueDepth: cfg.Reg.Gauge(fmt.Sprintf("server/shard/%03d/queue_depth", i)),
			combines:   cfg.Reg.Counter(fmt.Sprintf("server/shard/%03d/combines", i)),
			scanBatch:  cfg.Reg.Histogram(fmt.Sprintf("server/shard/%03d/scan_batch", i)),
		}
		sh.free = make(chan *pass, walPassesPerShard)
		sh.free <- newPass(sh, s.wal != nil)
		if s.wal != nil {
			sh.free <- newPass(sh, true)
			sh.ctl = make(chan func())
		}
		s.shards = append(s.shards, sh)
		s.shardWG.Add(1)
		go s.combineLoop(sh)
	}
	if cfg.WindowTick > 0 {
		s.win = obs.NewWindow(cfg.Reg, cfg.WindowTick, windowSamples)
		s.windowStop = make(chan struct{})
		s.windowDone = make(chan struct{})
		go s.rotateLoop(cfg.WindowTick)
	}
	return s, nil
}

// newPass preallocates one pass record for sh at the largest pass the
// combiner gathers; durable passes also carry the WAL staging buffer.
func newPass(sh *shard, durable bool) *pass {
	ps := &pass{
		sh:      sh,
		ops:     make([]op.Op, 0, wire.MaxOpsPerFrame),
		slots:   make([]slot, 0, wire.MaxOpsPerFrame),
		results: make([]op.Result, 0, wire.MaxOpsPerFrame),
	}
	if durable {
		ps.rec = make([]byte, 0, wal.RecordCap(wire.MaxOpsPerFrame))
	}
	return ps
}

// now returns nanoseconds since the server epoch (monotonic).
func (s *Server) now() int64 { return time.Since(s.epoch).Nanoseconds() }

// shardFor routes a set key (already validated in [0, KeySpace)) to
// its range partition.
func (s *Server) shardFor(key int64) *shard {
	i := int(key * int64(len(s.shards)) / s.cfg.KeySpace)
	return s.shards[i]
}

// shardUpper is the exclusive upper key bound of shard i's partition.
func (s *Server) shardUpper(i int) int64 {
	return int64(i+1) * s.cfg.KeySpace / int64(len(s.shards))
}

// Serve accepts connections on ln until Shutdown (returning nil after
// the drain completes) or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	draining := s.draining.Load()
	s.mu.Unlock()
	if draining {
		// Shutdown ran before Serve stored the listener and so could not
		// close it; close it here or Accept would block forever on a
		// drained server.
		ln.Close()
		<-s.drainDone
		return nil
	}
	// Recover before the first Accept: no client can connect — and so
	// no op can be published — until the restored state and the log
	// tail agree. /healthz (on the ops listener) serves "recovering"
	// meanwhile. A failed recovery closes the listener: nothing will
	// ever accept on it, so a client's dial must be refused, not left
	// queued in the kernel's backlog.
	if err := s.recoverWAL(); err != nil {
		ln.Close()
		return err
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				<-s.drainDone
				return nil
			}
			return err
		}
		records := max(2, s.cfg.QueueDepth/16)
		c := &conn{
			id:   int(s.connSeq.Add(1)),
			nc:   nc,
			out:  make(chan *frame, records),
			free: make(chan *frame, records),
			next: make([]int, len(s.shards)+1),
		}
		// Seed the sampler from the connection id via a splitmix64
		// round: distinct nonzero streams per connection without any
		// shared generator for readers to contend on.
		z := uint64(c.id)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		z ^= z >> 30
		z *= 0x94d049bb133111eb
		c.rng = z | 1
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.readers.Add(1)
		s.writers.Add(1)
		s.mu.Unlock()
		s.connsTotal.Inc()
		s.connsOpen.Add(1)
		go s.readLoop(c)
		go s.writeLoop(c)
	}
}

// Addr returns the listen address once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// readLoop decodes request frames and publishes them to shards. It
// exits on connection error, idle timeout, malformed input, or drain;
// only complete frames ever publish ops, so a teardown mid-frame loses
// nothing that could have been acknowledged.
func (s *Server) readLoop(c *conn) {
	defer func() {
		s.readers.Done()
		// Close the response queue only after every published frame has
		// been executed and completed; the writer then answers the rest
		// and closes the socket.
		go func() {
			c.inflight.Wait()
			close(c.out)
		}()
	}()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	var ops []op.Op
	for {
		if s.draining.Load() {
			return
		}
		if t := s.cfg.IdleTimeout; t > 0 {
			c.nc.SetReadDeadline(time.Now().Add(t))
		}
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = payload[:0]
		tFrame := s.now()
		f := c.record() // before decoding: every decoded frame holds a record
		var tc wire.TraceContext
		ops, tc, err = wire.DecodeRequestAny(payload, ops[:0])
		if err != nil {
			return
		}
		s.framesIn.Inc()
		// One sampling decision per frame: the client's Sampled bit
		// forces it, otherwise the connection-local generator draws.
		// Everything span-shaped stays behind a nonzero traceID.
		sampled := tc.Sampled
		if !sampled && s.tr.sampleThreshold > 0 {
			sampled = c.sampleHit(s.tr.sampleThreshold)
		}
		traceID := tc.TraceID
		if !sampled {
			traceID = 0
		} else if traceID == 0 {
			traceID = s.tr.nextTraceID()
		}
		f.start = s.now()
		s.publish(f, ops, traceID, tFrame)
	}
}

// check returns StatusOK for an op this server serves, otherwise the
// status that rejects it. Global queries (Pred/Succ/PopMin/PopMax) would
// need a cross-shard merge, which is parked (not on the roadmap): they
// are served only by single-shard servers.
func (s *Server) check(o op.Op) op.Status {
	switch {
	case !s.caps.Supports(o.Kind), s.caps.SerialOnly(o.Kind) && len(s.shards) > 1:
		return op.StatusBadKind
	case s.caps.Keyed(o.Kind) && (o.Key < 0 || o.Key >= s.cfg.KeySpace):
		return op.StatusBadKey
	}
	return op.StatusOK
}

// publish routes one decoded frame into f — a stable counting sort by
// owning shard, rejected ops last and answered in place — and sends one
// slot per shard it touches. A nonzero traceID samples every accepted
// op.
func (s *Server) publish(f *frame, ops []op.Op, traceID uint64, tFrame int64) {
	c, k, n := f.c, len(s.shards), len(ops)
	route, next := c.route[:0], c.next
	clear(next)
	for i := range ops {
		o, b := &ops[i], k
		if s.check(*o) == op.StatusOK {
			b = 0
			if s.caps.Keyed(o.Kind) {
				b = s.shardFor(o.Key).idx
			}
			if o.Kind == op.RangeScan {
				// Clamp Hi to the owning shard's bound so one scan never
				// crosses a combiner — the pagination cursor (== the
				// clamped Hi on a complete scan) walks the client into
				// the next shard naturally — and bound the per-scan
				// cardinality (a Limit of 0 requests the maximum).
				o.Hi = min(o.Hi, s.shardUpper(b))
				if o.Limit == 0 || o.Limit > wire.MaxScanLimit {
					o.Limit = wire.MaxScanLimit
				}
			}
		}
		route = append(route, int32(b))
		next[b]++
	}
	c.route = route
	slots, at := 0, 0
	for b, cnt := range next {
		next[b], at = at, at+cnt
		if cnt > 0 && b < k {
			slots++
		}
	}
	f.ops = slices.Grow(f.ops[:0], n)[:n]
	f.results = slices.Grow(f.results[:0], n)[:n]
	clear(f.spans) // drop the last sample's spans; rejected ops carry none
	f.spans = f.spans[:0]
	if traceID != 0 {
		f.spans = slices.Grow(f.spans, n)[:n]
	}
	for i, o := range ops {
		b := int(route[i])
		j := next[b]
		next[b]++
		f.ops[j] = o
		if b == k {
			f.results[j] = op.Result{ID: o.ID, Status: s.check(o)}
			s.opsBad.Inc()
		} else if traceID != 0 {
			f.spans[j] = &span{traceID: traceID, opID: o.ID, kind: o.Kind, conn: c.id, shard: b, start: tFrame}
			s.tr.sampled.Inc()
		}
	}
	f.left.Store(int32(slots))
	if slots == 0 { // nothing to apply: answer now
		c.out <- f
		return
	}
	c.inflight.Add(1)
	lo := 0
	for b, sh := range s.shards {
		if hi := next[b]; hi > lo {
			sl := slot{f: f, lo: lo, hi: hi}
			if spans := sl.spans(); spans != nil {
				tPub := s.now()
				for _, sp := range spans {
					sp.pub = tPub
				}
			}
			sh.in <- sl
		}
		lo = next[b]
	}
}

// combineLoop is one shard's combiner: it takes the next slot, acquires
// a pass record, gathers more slots into it when the queue had some
// waiting, executes the whole pass against the sequential structure,
// and either releases the acks itself (in memory) or hands the pass to
// the WAL writer, which releases them once the staged record is
// durable.
func (s *Server) combineLoop(sh *shard) {
	defer s.shardWG.Done()
	var next slot
	carried := false
	for {
		// A combiner that found its queue empty serves only the slot that
		// wakes it: a frame completes as a unit, so gathering a second
		// frame would only make the first wait for it.
		gather := carried || len(sh.in) > 0
		// Durability adds one combiner-context control channel: the
		// snapshot scheduler borrows the combiner between passes to dump
		// the shard's state at a consistent point in its serial order.
		// In memory ctl is nil and that case never fires.
		if carried {
			select {
			case f := <-sh.ctl:
				f()
			default:
			}
		} else {
			var ok bool
			select {
			case next, ok = <-sh.in:
				if !ok {
					return
				}
			case f := <-sh.ctl:
				f()
				continue
			}
		}
		carried = false
		// In memory the shard's one pass is always free here. Durable,
		// this blocks while the WAL writer holds both: the WAL's
		// backpressure, upstream of the pinned window.
		ps := <-sh.free
		ps.ops, ps.slots, ps.traced = ps.ops[:0], ps.slots[:0], false
		s.admit(ps, next)
	gather:
		for gather {
			select {
			case sl, ok := <-sh.in:
				if !ok {
					break gather
				}
				if len(ps.ops)+sl.hi-sl.lo > wire.MaxOpsPerFrame {
					next, carried = sl, true // first in the next pass
					break gather
				}
				s.admit(ps, sl)
			default:
				break gather
			}
		}
		s.applyBatch(ps)
		s.cfg.Log.record(ps)
		sh.combines.Inc()
		sh.batchSize.Observe(int64(len(ps.ops)))
		sh.queueDepth.Set(int64(len(sh.in)))
		s.opsTotal.Add(uint64(len(ps.ops)))
		if s.wal != nil {
			// Durable: the WAL writer releases the acks once the staged
			// record is on disk. Every pass rides the writer's FIFO — even
			// one that staged nothing — so an ack for a read that observed
			// a write always follows that write's sync.
			s.wal.commits <- ps
			continue
		}
		s.release(ps, ps.end)
	}
}

// admit gathers one slot into the pass, stamping its sampled ops'
// pickup: everything before this instant is queue wait, everything
// until the pass executes is combine wait.
func (s *Server) admit(ps *pass, sl slot) {
	if spans := sl.spans(); spans != nil {
		tPick := s.now()
		for _, sp := range spans {
			sp.pick = tPick
		}
		ps.traced = true
	}
	ps.ops = append(ps.ops, sl.f.ops[sl.lo:sl.hi]...)
	ps.slots = append(ps.slots, sl)
}

// release acknowledges one executed pass and returns it to its shard:
// each slot's results are copied into its frame — scan values out of
// the pass's arena, which the next gather reuses, into the frame's
// arena for this shard — and the release that leaves a frame no slot
// outstanding hands it to its connection's writer and takes it out of
// the connection's inflight count. tAck is the instant the acks are
// released — ps.end in memory, where the combiner calls this; after the
// fsync wait in durable mode, where the WAL writer does.
func (s *Server) release(ps *pass, tAck int64) {
	k, scans := 0, int64(0)
	for _, sl := range ps.slots {
		f, vals := sl.f, sl.f.vals[ps.sh.idx][:0]
		for i := sl.lo; i < sl.hi; i, k = i+1, k+1 {
			r := ps.results[k]
			if r.Values != nil {
				at := len(vals)
				vals = append(vals, r.Values...)
				r.Values = vals[at:len(vals):len(vals)]
				scans++
			}
			f.results[i] = r
			s.opLatency.Observe(tAck - f.start)
		}
		f.vals[ps.sh.idx] = vals
		for _, sp := range sl.spans() {
			sp.applied = ps.end
		}
		if f.left.Add(-1) == 0 {
			f.c.out <- f
			f.c.inflight.Done()
		}
	}
	if scans > 0 {
		ps.sh.scanBatch.Observe(scans)
	}
	ps.sh.free <- ps
}

// applyBatch executes the gathered pass against the shard's sequential
// structure: it stamps sampled ops' apply-start, runs one ApplyBatch
// over the ops exactly as gathered, stages the WAL record when durable,
// and stamps completion. This is the combining window itself — every
// published op on the shard waits for it — so it must neither allocate
// (GC pauses here stall the whole shard) nor touch anything that can
// park the combiner goroutine; channel hand-offs stay in combineLoop on
// either side.
//
//pimvet:nopark
func (s *Server) applyBatch(ps *pass) {
	sh := ps.sh
	if ps.traced {
		tApply := s.now()
		for _, sl := range ps.slots {
			for _, sp := range sl.spans() {
				sp.applyStart = tApply
			}
		}
	}
	ps.results = ps.results[:len(ps.ops)]
	ps.arena = sh.be.ApplyBatch(ps.ops, ps.results, ps.arena[:0])
	if ps.rec != nil {
		// Durability stages here, inside the window, but only as bytes
		// in the pass's preallocated buffer: the file write and fsync
		// belong to the WAL writer goroutine (nopark's stdlib
		// allowlist excludes os and syscall, which enforces the split).
		ps.stageRecord()
	}
	ps.end = s.now()
}

// closeGrace bounds how long a closing connection waits for the client
// to read its final responses and close its half of the socket.
const closeGrace = 5 * time.Second

// writeLoop answers a connection's completed frames: each with one
// response frame, every frame already completed coalesced into one
// socket write. After a write error the connection is failed: frames
// keep draining and their records recycling, but nothing more is sent.
func (s *Server) writeLoop(c *conn) {
	defer func() {
		// Close gracefully: a bare Close with unread request bytes in
		// the kernel buffer sends RST, which destroys responses still in
		// flight to the client — exactly the acknowledged-op loss the
		// drain contract forbids. Send FIN instead, then discard inbound
		// until the client closes (the reader has already exited, so the
		// socket is ours to drain).
		if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && !c.failed.Load() {
			cw.CloseWrite()
			deadline := time.Now().Add(closeGrace)
			for {
				c.nc.SetReadDeadline(deadline)
				if _, err := io.Copy(io.Discard, c.nc); err == nil {
					break // client sent FIN
				} else if ne, ok := err.(net.Error); ok && ne.Timeout() && time.Now().Before(deadline) {
					continue // Shutdown poked the read deadline; re-arm ours
				}
				break
			}
		}
		c.nc.Close()
		// The writer is the last goroutine to touch the conn: forget it,
		// or it pins its out queue for the life of the process.
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connsOpen.Add(-1)
		s.writers.Done()
	}()
	var buf []byte
	var spans []*span // the sampled ops this write answers
	for f := range c.out {
		buf, spans = buf[:0], spans[:0]
		nframes := 0
		for {
			var n int
			buf, n, _ = wire.AppendResponses(buf, f.results)
			nframes += n
			for _, sp := range f.spans {
				if sp != nil {
					spans = append(spans, sp)
				}
			}
			c.free <- f // the response bytes are in buf now
			if len(c.out) == 0 || len(buf) >= 64<<10 {
				break
			}
			f = <-c.out
		}
		if c.failed.Load() {
			s.tr.drop(len(spans))
			continue
		}
		if len(spans) > 0 {
			tEnc := s.now()
			for _, sp := range spans {
				sp.enc = tEnc
			}
		}
		if t := s.cfg.WriteTimeout; t > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(t))
		}
		if _, err := c.nc.Write(buf); err != nil {
			c.failed.Store(true)
			s.tr.drop(len(spans))
			continue
		}
		s.framesOut.Add(uint64(nframes))
		if len(spans) > 0 {
			tFlush := s.now()
			for _, sp := range spans {
				sp.flush = tFlush
				s.tr.finish(sp)
			}
		}
	}
}

// Shutdown drains the server: it stops accepting, unblocks the
// readers, lets every shard execute its remaining queue, waits for the
// writers to flush every response, and only then closes the
// connections. Safe to call more than once; Serve returns nil once the
// drain completes.
func (s *Server) Shutdown() {
	s.shutdown.Do(func() {
		s.draining.Store(true)
		s.mu.Lock()
		ln := s.ln
		conns := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		// Unblock readers stuck in Read; they exit without publishing
		// partial frames.
		for _, c := range conns {
			c.nc.SetReadDeadline(time.Now())
		}
		s.readers.Wait()
		// Stop the snapshot scheduler before the combiners: its dumps
		// borrow combiner context and its segment rolls ride the WAL
		// writer, so both peers must outlive it.
		s.mu.Lock()
		w := s.wal
		started := w != nil && w.started
		s.mu.Unlock()
		if started && w.snapStop != nil {
			close(w.snapStop)
			<-w.snapDone
		}
		// No more producers: close the publication queues, let the
		// combiners drain them dry.
		for _, sh := range s.shards {
			close(sh.in)
		}
		s.shardWG.Wait()
		// The combiners handed their last passes to the WAL writer;
		// close the commit pipeline and wait for the final sync — only
		// then has every op been acked and every conn's inflight count
		// reached zero.
		if started {
			close(w.commits)
			<-w.writerDone
		}
		// Every inflight frame is completed, so each conn's teardown
		// closes its out queue and its writer flushes and exits.
		s.writers.Wait()
		// Quiescent now: capture the drained state so the next start
		// restores a snapshot instead of replaying the whole log.
		if started {
			s.finalSnapshot()
		}
		// Stop window rotation last: /healthz and /metrics/history stay
		// scrape-safe for the whole drain (reporting "draining"), and no
		// rotation can race the registry once drainDone closes.
		if s.windowStop != nil {
			close(s.windowStop)
			<-s.windowDone
		}
		close(s.drainDone)
	})
}

// ShardLens returns each shard's element count. Only meaningful at
// quiescence (after Shutdown).
func (s *Server) ShardLens() []int {
	lens := make([]int, len(s.shards))
	for i, sh := range s.shards {
		lens[i] = sh.be.Len()
	}
	return lens
}
