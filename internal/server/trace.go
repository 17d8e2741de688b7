package server

// Wall-clock request tracing. A sampled request carries a *span through
// the server pipeline; each stage stamps the server clock as the
// request passes, and the writer finishes the span when the response
// frame reaches the socket. The seven stamps telescope — each component
// is the difference of adjacent stamps — so the six components sum
// EXACTLY to the measured end-to-end latency by construction (asserted
// in tests), with no residual "unattributed" bucket. The component
// taxonomy is declared once in internal/prof next to the virtual-time
// profiler's, so the two breakdowns stay in lockstep.
//
// Sampling is decided per frame in the reader goroutine with a
// per-connection xorshift64 generator (no shared state, no locks), or
// forced by the client via the frame's trace-context Sampled bit. Unsampled
// requests touch no tracing state at all beyond one nil check per
// stage; only the sampled path allocates. By convention every span
// allocation in the hot loops sits behind the sampling guard;
// TestSampleHitAllocs pins the guard itself at zero allocations.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/prof"
)

// span is one sampled request's timeline: seven clock stamps (ns since
// the server epoch) bracketing the six pipeline stages, written in
// strict succession by the reader (start, pub), the combiner (pick,
// applyStart), the pass's releaser (applied) and the writer (enc,
// flush); the shard channel, the frame's slot countdown and the out
// channel order them, so no stamp needs atomics.
type span struct {
	traceID uint64
	opID    uint64
	kind    op.Kind
	conn    int
	shard   int

	start      int64 // reader: frame read complete, decode begins
	pub        int64 // reader: the op's slot published to the shard queue
	pick       int64 // combiner: the op's slot gathered into a pass
	applyStart int64 // combiner: batch apply begins
	applied    int64 // combiner: batch apply done
	enc        int64 // writer: response frame encoded
	flush      int64 // writer: response flushed to the socket
}

// SpanRecord is one finished span as exported by the ops endpoint and
// the Chrome trace: the identity of the request plus its six-component
// latency breakdown. ComponentsNS is keyed by prof.ServerComponent
// names and always sums exactly to E2ENS.
type SpanRecord struct {
	TraceID      string           `json:"trace_id"` // 0x-prefixed hex
	OpID         uint64           `json:"op_id"`
	Kind         string           `json:"kind"`
	Conn         int              `json:"conn"`
	Shard        int              `json:"shard"`
	StartNS      int64            `json:"start_ns"` // ns since server epoch
	E2ENS        int64            `json:"e2e_ns"`
	ComponentsNS map[string]int64 `json:"components_ns"`
}

// components returns the telescoped breakdown in taxonomy order. The
// array return lives in the caller's frame: subtraction only, no heap.
//
//pimvet:nopark
func (sp *span) components() [prof.NumServerComponents]int64 {
	return [prof.NumServerComponents]int64{
		prof.SrvReadDecode:  sp.pub - sp.start,
		prof.SrvQueueWait:   sp.pick - sp.pub,
		prof.SrvCombineWait: sp.applyStart - sp.pick,
		prof.SrvApply:       sp.applied - sp.applyStart,
		prof.SrvRespEncode:  sp.enc - sp.applied,
		prof.SrvWriteFlush:  sp.flush - sp.enc,
	}
}

func (sp *span) record() SpanRecord {
	comps := sp.components()
	m := make(map[string]int64, prof.NumServerComponents)
	for i, v := range comps {
		m[prof.ServerComponent(i).String()] = v
	}
	return SpanRecord{
		TraceID:      fmt.Sprintf("0x%016x", sp.traceID),
		OpID:         sp.opID,
		Kind:         sp.kind.String(),
		Conn:         sp.conn,
		Shard:        sp.shard,
		StartNS:      sp.start,
		E2ENS:        sp.flush - sp.start,
		ComponentsNS: m,
	}
}

// spanRing is a fixed-capacity ring of finished spans; one per shard so
// combiner-adjacent traffic never contends across shards. Push is
// O(1) under a short critical section.
type spanRing struct {
	mu   sync.Mutex
	buf  []SpanRecord
	next int
	full bool
}

func newSpanRing(capacity int) *spanRing {
	return &spanRing{buf: make([]SpanRecord, capacity)}
}

func (r *spanRing) push(rec SpanRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// snapshot returns the ring's contents, oldest first.
func (r *spanRing) snapshot() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]SpanRecord(nil), r.buf[:r.next]...)
	}
	out := make([]SpanRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// tracer owns the server's span machinery: per-shard rings, the
// slow-request log, the sampling threshold, and the per-component
// latency histograms.
type tracer struct {
	sampleThreshold uint64 // sample when rng() < threshold
	slowThreshold   int64  // ns; 0 disables the slow log
	rings           []*spanRing
	epoch           time.Time // server epoch, for wall-clock trace export

	slowMu   sync.Mutex
	slow     []SpanRecord  // bounded at slowLogCap, oldest evicted
	traceSeq atomic.Uint64 // server-generated trace IDs

	sampled   *obs.Counter
	slowCount *obs.Counter
	dropped   *obs.Counter // spans lost to failed connections
	e2e       *obs.Histogram
	comp      [prof.NumServerComponents]*obs.Histogram
}

// slowLogCap bounds the slow-request log; beyond it the oldest entry
// is evicted, keeping the most recent offenders.
const slowLogCap = 128

func newTracer(cfg Config, epoch time.Time) *tracer {
	tr := &tracer{
		slowThreshold: cfg.SlowThreshold.Nanoseconds(),
		epoch:         epoch,
		sampled:       cfg.Reg.Counter("server/trace/sampled"),
		slowCount:     cfg.Reg.Counter("server/trace/slow"),
		dropped:       cfg.Reg.Counter("server/trace/dropped"),
		e2e:           cfg.Reg.Histogram("server/trace/e2e_ns"),
	}
	if cfg.TraceSample > 0 {
		p := cfg.TraceSample
		if p >= 1 {
			tr.sampleThreshold = ^uint64(0)
		} else {
			tr.sampleThreshold = uint64(p * float64(1<<63) * 2)
		}
	}
	for i := range tr.comp {
		name := prof.ServerComponent(i).String()
		tr.comp[i] = cfg.Reg.Histogram("server/trace/" + name + "_ns")
	}
	ringCap := cfg.TraceRing
	if ringCap <= 0 {
		ringCap = 256
	}
	for i := 0; i < cfg.Shards; i++ {
		tr.rings = append(tr.rings, newSpanRing(ringCap))
	}
	return tr
}

// nextTraceID mints a server-originated trace ID for locally sampled
// requests. IDs are nonzero (zero is the wire's "no trace" value) and
// unique within the process.
func (tr *tracer) nextTraceID() uint64 {
	return tr.traceSeq.Add(1) | 1<<63
}

// finish closes a span at response flush: observe its breakdown into
// the histograms, push it onto its shard's ring, and log it if slow.
// Called only from the connection's writer goroutine.
func (tr *tracer) finish(sp *span) {
	rec := sp.record()
	tr.e2e.Observe(rec.E2ENS)
	for i, v := range sp.components() {
		tr.comp[i].Observe(v)
	}
	tr.rings[sp.shard].push(rec)
	if tr.slowThreshold > 0 && rec.E2ENS >= tr.slowThreshold {
		tr.slowCount.Inc()
		tr.slowMu.Lock()
		if len(tr.slow) == slowLogCap {
			copy(tr.slow, tr.slow[1:])
			tr.slow = tr.slow[:slowLogCap-1]
		}
		tr.slow = append(tr.slow, rec)
		tr.slowMu.Unlock()
	}
}

// drop accounts for spans whose responses never reached the client
// (failed connection); their timelines are incomplete and unusable.
func (tr *tracer) drop(n int) {
	if n > 0 {
		tr.dropped.Add(uint64(n))
	}
}

// TraceSpans returns the finished spans currently held in the per-shard
// rings, ordered by start time. The rings keep the most recent
// Config.TraceRing spans per shard.
func (s *Server) TraceSpans() []SpanRecord {
	var out []SpanRecord
	for _, r := range s.tr.rings {
		out = append(out, r.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// SlowRequests returns the slow-request log: the most recent spans
// (up to 128) whose end-to-end latency met Config.SlowThreshold,
// oldest first. Empty when no threshold is configured.
func (s *Server) SlowRequests() []SpanRecord {
	s.tr.slowMu.Lock()
	defer s.tr.slowMu.Unlock()
	return append([]SpanRecord(nil), s.tr.slow...)
}

// WriteChromeTrace exports the ring contents as Chrome trace-event
// JSON (chrome://tracing, Perfetto) through the same writer the
// virtual-time simulator's tracer uses, so server and simulator traces
// open in the same viewer. Each request is an enclosing slice on its
// shard's track with six child slices tiling it, one per component.
// Timestamps are wall-clock microseconds since the Unix epoch.
func (s *Server) WriteChromeTrace(w io.Writer) error {
	spans := s.TraceSpans()
	cw := obs.NewChromeWriter(w)
	epochUS := float64(s.tr.epoch.UnixNano()) / 1e3
	named := make(map[int]bool, len(s.tr.rings))
	for _, rec := range spans {
		if !named[rec.Shard] {
			cw.ThreadName(1, rec.Shard, fmt.Sprintf("shard %d", rec.Shard))
			named[rec.Shard] = true
		}
		ts := epochUS + float64(rec.StartNS)/1e3
		cw.Complete(rec.Kind, "request", ts, float64(rec.E2ENS)/1e3, 1, rec.Shard,
			map[string]interface{}{"trace_id": rec.TraceID, "op_id": rec.OpID, "conn": rec.Conn})
		at := ts
		for i := 0; i < prof.NumServerComponents; i++ {
			name := prof.ServerComponent(i).String()
			dur := float64(rec.ComponentsNS[name]) / 1e3
			cw.Complete(name, "component", at, dur, 1, rec.Shard, nil)
			at += dur
		}
	}
	return cw.Close()
}
