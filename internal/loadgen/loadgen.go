// Package loadgen is the traffic engine behind cmd/pimload: it drives
// a pimserve instance over the wire protocol from many concurrent
// connections, in closed loop (each connection keeps a fixed pipeline
// of operations outstanding) or open loop (operations are injected on
// a fixed schedule regardless of responses), and reports throughput
// plus client-observed latency percentiles as the summary lines
// cmd/pimload prints.
package loadgen

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimds/internal/harness"
	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/wire"
)

// Structure families a load can target (the server's list/skip/hash
// all speak "set").
const (
	StructSet   = "set"
	StructQueue = "queue"
	StructStack = "stack"
)

// dialTimeout bounds each connection attempt.
const dialTimeout = 5 * time.Second

// Config configures one load run.
type Config struct {
	// Addr is the pimserve TCP address.
	Addr string
	// Structure selects the op family: set, queue or stack.
	Structure string
	// Conns is the number of concurrent connections. Default 1.
	Conns int
	// Pipeline is the operations kept outstanding per connection: the
	// closed-loop batch size, or the open-loop outstanding cap.
	// Default 1.
	Pipeline int
	// Rate, when > 0, switches to open loop at this total target
	// ops/s across all connections.
	Rate float64
	// Duration is how long to inject load. Default 1s.
	Duration time.Duration
	// Dist generates keys (sets) or values (queue/stack pushes).
	// Default Uniform over [0, 65536).
	Dist harness.KeyDist
	// Mix is the set operation mix; ignored for queue/stack, which
	// split 50/50 between insert and delete ends. Default Balanced.
	Mix harness.Mix
	// Seed makes the key streams reproducible (connection i uses
	// Seed+i). Timing, of course, is not.
	Seed int64
	// ScanSpan is the key width of generated range scans (mix kinds
	// scan:N); 0 keeps the generator default of 1/64 of the key space.
	ScanSpan int64
	// ScanLimit is the per-scan result cap sent on the wire; 0 lets the
	// server apply its maximum (wire.MaxScanLimit).
	ScanLimit int
	// TraceSample is the fraction of request frames ([0, 1]) sent with a
	// trace context whose Sampled bit is set, forcing server-side span
	// recording for those requests regardless of the server's own
	// sample rate. Trace IDs are minted per frame from the seeded
	// per-connection stream. Zero sends only untraced frames.
	TraceSample float64
	// SLOP99 is the p99 latency budget. When set, the result carries
	// an SLO verdict: whether the observed p99 met the budget, and the
	// error-budget burn rate (fraction of responses over budget,
	// normalized by the 1% a p99 target allows — burn 1.0 means the
	// budget is being consumed exactly as fast as it accrues).
	SLOP99 time.Duration
}

func (c Config) withDefaults() Config {
	if c.Structure == "" {
		c.Structure = StructSet
	}
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.Pipeline == 0 {
		c.Pipeline = 1
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.Dist == nil {
		c.Dist = harness.Uniform{N: 1 << 16}
	}
	if c.Mix == (harness.Mix{}) {
		c.Mix = harness.Balanced()
	}
	return c
}

// Validate rejects out-of-range settings: Conns ≥ 1, 1 ≤ Pipeline ≤
// wire.MaxOpsPerFrame, Rate ≥ 0. Zero still selects the default. Run
// calls it before dialing.
func (c Config) Validate() error {
	switch {
	case c.Conns < 0:
		return fmt.Errorf("loadgen: Conns %d, want ≥ 1 (0 = default)", c.Conns)
	case c.Pipeline < 0 || c.Pipeline > wire.MaxOpsPerFrame:
		return fmt.Errorf("loadgen: Pipeline %d, want 1..%d (0 = default)", c.Pipeline, wire.MaxOpsPerFrame)
	case !(c.Rate >= 0):
		return fmt.Errorf("loadgen: Rate %v, want ≥ 0 (0 = closed loop)", c.Rate)
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	Cfg          Config
	Ops          uint64        // completed operations (responses received)
	Errors       uint64        // responses with a non-OK status
	Elapsed      time.Duration // first send to last response
	Latency      *obs.Histogram
	TracedFrames uint64 // request frames sent with trace context
	OverBudget   uint64 // responses slower than Cfg.SLOP99
	Allocs       uint64 // client-side heap allocations during the run
	Scans        uint64 // completed range scans (subset of Ops)
	ScanKeys     uint64 // keys returned across all completed scans
}

// KeysPerScan is the mean result cardinality of the run's range scans.
func (r *Result) KeysPerScan() float64 {
	if r.Scans == 0 {
		return 0
	}
	return float64(r.ScanKeys) / float64(r.Scans)
}

// AllocsPerOp is the client-side allocation cost of one completed
// operation — the load generator's own efficiency, printed in the
// summary so the injector can't silently become the bottleneck.
func (r *Result) AllocsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Allocs) / float64(r.Ops)
}

// SLO is a run's verdict against the configured p99 budget.
type SLO struct {
	Budget     time.Duration
	P99        time.Duration
	Met        bool
	OverBudget uint64
	// BurnRate is (fraction of responses over budget) / 0.01: how fast
	// the 1% error budget a p99 target grants is being consumed. ≤ 1
	// means within budget, 2 means burning twice as fast as allowed.
	BurnRate float64
}

// SLO evaluates the run against Cfg.SLOP99; ok is false when no
// budget was configured.
func (r *Result) SLO() (slo SLO, ok bool) {
	if r.Cfg.SLOP99 <= 0 {
		return SLO{}, false
	}
	_, _, p99 := r.Latency.Percentiles()
	slo = SLO{
		Budget:     r.Cfg.SLOP99,
		P99:        time.Duration(p99),
		Met:        p99 <= r.Cfg.SLOP99.Nanoseconds(),
		OverBudget: r.OverBudget,
	}
	if r.Ops > 0 {
		slo.BurnRate = float64(r.OverBudget) / float64(r.Ops) / 0.01
	}
	return slo, true
}

// OpsPerSec returns the aggregate throughput.
func (r *Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// mode describes the loop discipline for reports.
func (r *Result) mode() string {
	if r.Cfg.Rate > 0 {
		return fmt.Sprintf("open@%.0f/s", r.Cfg.Rate)
	}
	return "closed"
}

// String renders the one-line summary cmd/pimload prints (and CI
// greps), followed by an SLO verdict line when a budget is set.
func (r *Result) String() string {
	p50, p95, p99 := r.Latency.Percentiles()
	s := fmt.Sprintf("pimload: %d ops in %.2fs = %.0f ops/s (%s, %d conns, pipeline %d; p50=%s p95=%s p99=%s; %d errors; %.1f allocs/op)",
		r.Ops, r.Elapsed.Seconds(), r.OpsPerSec(), r.mode(), r.Cfg.Conns, r.Cfg.Pipeline,
		time.Duration(p50), time.Duration(p95), time.Duration(p99), r.Errors, r.AllocsPerOp())
	if r.Scans > 0 {
		s += fmt.Sprintf("\npimload: %d scans returned %d keys (%.1f keys/scan)", r.Scans, r.ScanKeys, r.KeysPerScan())
	}
	if slo, ok := r.SLO(); ok {
		verdict := "PASS"
		if !slo.Met {
			verdict = "FAIL"
		}
		s += fmt.Sprintf("\npimload: SLO p99≤%s: %s (p99=%s, %d/%d over budget, burn %.2f)",
			slo.Budget, verdict, slo.P99, slo.OverBudget, r.Ops, slo.BurnRate)
	}
	return s
}

// opStream yields the wire ops for one connection, deterministically
// from the connection's seed.
type opStream struct {
	structure string
	gen       *harness.Generator
	nextID    uint64
	trng      uint64 // trace-sampling xorshift64 state
	traceBar  uint64 // sample a frame when the next draw ≤ this
}

func newOpStream(cfg Config, conn int) *opStream {
	st := &opStream{
		structure: cfg.Structure,
		gen:       harness.NewGenerator(cfg.Seed+int64(conn)*7919, cfg.Dist, cfg.Mix),
	}
	if cfg.ScanSpan > 0 {
		st.gen.ScanSpan = cfg.ScanSpan
	}
	if cfg.ScanLimit > 0 {
		st.gen.ScanLimit = uint16(cfg.ScanLimit)
	}
	if cfg.TraceSample > 0 {
		if cfg.TraceSample >= 1 {
			st.traceBar = ^uint64(0)
		} else {
			st.traceBar = uint64(cfg.TraceSample * float64(1<<63) * 2)
		}
		// Splitmix64 round over the connection seed: distinct nonzero
		// trace streams per connection.
		z := uint64(cfg.Seed+int64(conn)*7919)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		z ^= z >> 30
		z *= 0x94d049bb133111eb
		st.trng = z | 1
	}
	return st
}

// traceFrame draws the per-frame sampling decision and, for sampled
// frames, mints a nonzero trace ID from the same seeded stream. Runs
// once per request frame on both loop disciplines, so it is pinned
// allocation-free: tracing must not perturb the load being measured.
//
//pimvet:nopark
func (st *opStream) traceFrame() (wire.TraceContext, bool) {
	if st.traceBar == 0 {
		return wire.TraceContext{}, false
	}
	x := st.trng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	st.trng = x
	if x > st.traceBar {
		return wire.TraceContext{}, false
	}
	return wire.TraceContext{TraceID: x, Sampled: true}, true
}

// next returns the next operation. A set draw is already the op to
// send; for queue/stack the draw maps onto the two ends: Add means
// Enqueue/Push (the key is the value), everything else Dequeue/Pop.
// This is the injector's inner loop — an allocation here is charged to
// every single op of every run (and shows up in AllocsPerOp), so it is
// pinned allocation-free.
//
//pimvet:nopark
func (st *opStream) next() op.Op {
	o := st.gen.Next()
	o.ID = st.nextID
	st.nextID++
	ins, del := op.Enqueue, op.Dequeue
	switch st.structure {
	case StructSet:
		return o
	case StructStack:
		ins, del = op.Push, op.Pop
	}
	if o.Kind == op.Add {
		return op.Op{ID: o.ID, Key: o.Key, Kind: ins}
	}
	return op.Op{ID: o.ID, Key: o.Key, Kind: del}
}

// appendRequest encodes one request frame for this stream, carrying the
// frame's trace-sampling draw. Pinned with the loops that call it: the
// encode path runs once per frame of every measured run.
//
//pimvet:nopark
func (st *opStream) appendRequest(out []byte, batch []op.Op, ctr *counters) ([]byte, error) {
	tc, traced := st.traceFrame()
	if traced {
		ctr.traced.Add(1)
	}
	return wire.AppendRequestV2(out, batch, tc)
}

// Run executes the configured load and blocks until every connection
// has drained its outstanding operations.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Structure != StructSet && cfg.Structure != StructQueue && cfg.Structure != StructStack {
		return nil, fmt.Errorf("loadgen: unknown structure %q (want set|queue|stack)", cfg.Structure)
	}
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}

	conns := make([]net.Conn, cfg.Conns)
	for i := range conns {
		nc, err := net.DialTimeout("tcp", cfg.Addr, dialTimeout)
		if err != nil {
			for _, c := range conns[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("loadgen: dial %s: %w", cfg.Addr, err)
		}
		conns[i] = nc
	}

	res := &Result{Cfg: cfg, Latency: &obs.Histogram{}}
	var (
		ctr    counters
		stop   = make(chan struct{})
		wg     sync.WaitGroup
		runErr atomic.Value
	)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	time.AfterFunc(cfg.Duration, func() { close(stop) })
	for i, nc := range conns {
		wg.Add(1)
		go func(i int, nc net.Conn) {
			defer wg.Done()
			defer nc.Close()
			var err error
			if cfg.Rate > 0 {
				err = openLoop(cfg, newOpStream(cfg, i), nc, stop, &ctr, res.Latency)
			} else {
				err = closedLoop(cfg, newOpStream(cfg, i), nc, stop, &ctr, res.Latency)
			}
			if err != nil {
				runErr.CompareAndSwap(nil, err)
			}
		}(i, nc)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.Ops = ctr.ops.Load()
	res.Errors = ctr.errs.Load()
	res.OverBudget = ctr.over.Load()
	res.TracedFrames = ctr.traced.Load()
	res.Scans = ctr.scans.Load()
	res.ScanKeys = ctr.scanKeys.Load()
	res.Allocs = m1.Mallocs - m0.Mallocs
	if err, _ := runErr.Load().(error); err != nil {
		return res, err
	}
	return res, nil
}

// counters aggregates per-connection tallies across the run.
type counters struct {
	ops      atomic.Uint64 // responses received
	errs     atomic.Uint64 // non-OK responses
	over     atomic.Uint64 // responses over the SLO budget
	traced   atomic.Uint64 // request frames sent with trace context
	scans    atomic.Uint64 // scan responses received
	scanKeys atomic.Uint64 // keys returned across scan responses
}

// observe records one response latency, tallying SLO budget overruns.
// Called once per response on the measurement path: everything in it is
// atomic counters, no locks, no allocation.
//
//pimvet:nopark
func (c *counters) observe(lat *obs.Histogram, d int64, budget int64, status op.Status) {
	lat.Observe(d)
	c.ops.Add(1)
	if status != op.StatusOK {
		c.errs.Add(1)
	}
	if budget > 0 && d > budget {
		c.over.Add(1)
	}
}

// observeScan tallies one scan response's cardinality.
//
//pimvet:nopark
func (c *counters) observeScan(nkeys int) {
	c.scans.Add(1)
	c.scanKeys.Add(uint64(nkeys))
}

// closedLoop keeps exactly Pipeline operations outstanding: send one
// request frame of Pipeline ops, wait for all responses, repeat.
func closedLoop(cfg Config, st *opStream, nc net.Conn, stop <-chan struct{}, ctr *counters, lat *obs.Histogram) error {
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)
	budget := cfg.SLOP99.Nanoseconds()
	batch := make([]op.Op, cfg.Pipeline)
	var out, payload []byte
	var results []op.Result
	var vals []int64
	var err error
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		for i := range batch {
			batch[i] = st.next()
		}
		out, err = st.appendRequest(out[:0], batch, ctr)
		if err != nil {
			return err
		}
		t0 := time.Now()
		base := batch[0].ID
		if _, err := bw.Write(out); err != nil {
			return fmt.Errorf("loadgen: write: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("loadgen: flush: %w", err)
		}
		for seen := 0; seen < len(batch); {
			payload, err = wire.ReadFrame(br, payload[:0])
			if err != nil {
				return fmt.Errorf("loadgen: read: %w", err)
			}
			// Values slices alias vals and are only read inside this
			// iteration, so one reusable arena per connection suffices.
			results, vals, err = wire.DecodeResponseAny(payload, results[:0], vals[:0])
			if err != nil {
				return err
			}
			d := time.Since(t0).Nanoseconds()
			for _, r := range results {
				ctr.observe(lat, d, budget, r.Status)
				// IDs in a closed-loop batch are consecutive from base, so
				// the echoed ID indexes the op that produced this response.
				if idx := r.ID - base; idx < uint64(len(batch)) && batch[idx].Kind == op.RangeScan {
					ctr.observeScan(len(r.Values))
				}
			}
			seen += len(results)
		}
	}
}

// drainWait bounds how long an open-loop connection waits, after its
// half-close, for the responses still outstanding.
const drainWait = 10 * time.Second

// openLoop injects one op every interval (the per-connection share of
// cfg.Rate), capping outstanding ops at Pipeline × 64 so a stalled
// server degrades to closed-loop instead of unbounded queueing
// (coordinated omission applies past that point, as with any bounded
// injector).
func openLoop(cfg Config, st *opStream, nc net.Conn, stop <-chan struct{}, ctr *counters, lat *obs.Histogram) error {
	perConn := cfg.Rate / float64(cfg.Conns)
	if perConn <= 0 {
		return fmt.Errorf("loadgen: open-loop rate %.1f too low for %d conns", cfg.Rate, cfg.Conns)
	}
	interval := time.Duration(float64(time.Second) / perConn)
	budget := cfg.SLOP99.Nanoseconds()
	maxOut := cfg.Pipeline * 64

	// sentOp remembers what went out under an ID: the send time for
	// latency, and whether it was a scan so the reader can tally result
	// cardinality without re-decoding the request.
	type sentOp struct {
		t0   time.Time
		scan bool
	}
	var (
		mu    sync.Mutex
		sent  = make(map[uint64]sentOp, maxOut)
		slots = make(chan struct{}, maxOut)
		wErr  atomic.Value
		done  = make(chan struct{}) // reader saw EOF (or failed)
	)

	// Reader: match responses to send times.
	go func() {
		defer close(done)
		br := bufio.NewReaderSize(nc, 64<<10)
		var payload []byte
		var results []op.Result
		var vals []int64
		var err error
		for {
			payload, err = wire.ReadFrame(br, payload[:0])
			if err != nil {
				wErr.CompareAndSwap(nil, fmt.Errorf("loadgen: read: %w", err))
				return
			}
			results, vals, err = wire.DecodeResponseAny(payload, results[:0], vals[:0])
			if err != nil {
				wErr.CompareAndSwap(nil, err)
				return
			}
			now := time.Now()
			mu.Lock()
			for _, r := range results {
				if s, ok := sent[r.ID]; ok {
					delete(sent, r.ID)
					ctr.observe(lat, now.Sub(s.t0).Nanoseconds(), budget, r.Status)
					if s.scan {
						ctr.observeScan(len(r.Values))
					}
					<-slots
				}
			}
			mu.Unlock()
		}
	}()

	bw := bufio.NewWriterSize(nc, 16<<10)
	var out []byte
	var err error
	next := time.Now()
send:
	for {
		select {
		case <-stop:
			break send
		case slots <- struct{}{}: // outstanding budget
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-stop:
				<-slots
				break send
			case <-time.After(d):
			}
		}
		next = next.Add(interval)
		o := st.next()
		mu.Lock()
		sent[o.ID] = sentOp{t0: time.Now(), scan: o.Kind == op.RangeScan}
		mu.Unlock()
		out, err = st.appendRequest(out[:0], []op.Op{o}, ctr)
		if err != nil {
			return err
		}
		if _, err := bw.Write(out); err != nil {
			return fmt.Errorf("loadgen: write: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("loadgen: flush: %w", err)
		}
	}

	// Drain: half-close so the server finishes our in-flight ops and
	// closes; the reader exits on EOF.
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	select {
	case <-done:
	case <-time.After(drainWait):
	}
	// EOF after half-close with nothing outstanding is the clean end. A
	// peer that stops answering without closing leaves ops outstanding
	// and no reader error.
	mu.Lock()
	pending := len(sent)
	mu.Unlock()
	if pending > 0 {
		err, _ := wErr.Load().(error)
		if err == nil {
			err = fmt.Errorf("no response within %v of half-close", drainWait)
		}
		return fmt.Errorf("loadgen: %d responses lost: %w", pending, err)
	}
	return nil
}

// Preload fills a set server to the harness's standard half-full
// occupancy (every other key) through one temporary connection, so
// measured runs start from the steady-state the paper's experiments
// use. It fails on the first add the server refuses, naming the key and
// the status. No-op for queue/stack.
func Preload(cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.Structure != StructSet {
		return nil
	}
	nc, err := net.DialTimeout("tcp", cfg.Addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("loadgen: preload dial: %w", err)
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)
	keys := harness.PreloadKeys(cfg.Dist.Space())
	// Shuffle deterministically so range-partitioned shards fill
	// evenly as the stream proceeds.
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	var out, payload []byte
	var batch []op.Op
	var results []op.Result
	var id uint64
	for len(keys) > 0 {
		n := wire.MaxOpsPerFrame
		if n > len(keys) {
			n = len(keys)
		}
		batch = batch[:0]
		for _, k := range keys[:n] {
			batch = append(batch, op.Op{ID: id, Kind: op.Add, Key: k})
			id++
		}
		keys = keys[n:]
		out, err = wire.AppendRequestV2(out[:0], batch, wire.TraceContext{})
		if err != nil {
			return err
		}
		if _, err := bw.Write(out); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for seen := 0; seen < n; {
			payload, err = wire.ReadFrame(br, payload[:0])
			if err != nil {
				return fmt.Errorf("loadgen: preload read: %w", err)
			}
			results, _, err = wire.DecodeResponseAny(payload, results[:0], nil)
			if err != nil {
				return fmt.Errorf("loadgen: preload decode: %w", err)
			}
			for _, r := range results {
				i := r.ID - batch[0].ID
				if i >= uint64(len(batch)) {
					return fmt.Errorf("loadgen: preload: reply for unknown id %d", r.ID)
				}
				if r.Status != op.StatusOK {
					return fmt.Errorf("loadgen: preload add of key %d: server answered %v", batch[i].Key, r.Status)
				}
			}
			seen += len(results)
		}
	}
	return nil
}
