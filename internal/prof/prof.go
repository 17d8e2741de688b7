// Package prof is a virtual-time profiler for the simulator: it
// reconstructs, per injected request, where every picosecond of
// end-to-end latency went — memory accesses, message hops, queueing at
// cores, combiner-batch waits, atomics, or handler service time — and
// exports an aggregate attribution report, folded-stack flamegraphs,
// and top-N slowest-request drill-downs.
//
// The profiler attaches to an engine as a sim.Observer and is strictly
// observational: simulated code never reads profiler state, so
// attaching one changes simulated results by exactly zero (pinned by
// test, like the metrics layer).
//
// # Attribution model
//
// Clients are closed-loop: each client CPU has at most one logical
// operation in flight, so a request is identified by its client's
// CoreID between the operation start and end marks sim.Client sets. Each
// in-flight request carries a cursor (lastT) that sweeps monotonically
// from issue time to completion time; every profiler event advances
// the cursor and charges the traversed interval to exactly one
// component. Because the intervals tile [issue, completion] with no
// gaps or overlaps, the per-component breakdown sums *exactly* to the
// request's end-to-end virtual latency — this is a property of the
// construction, and the test suite asserts it for every request of
// every structure.
//
// When a core serves a combined batch (messages drained via
// TakeQueued), every request in the batch is located at that core, so
// shared batch work (the combiner's single traversal) appears in the
// critical path of every batch member. That is the honest accounting:
// each member's latency really does include that traversal.
package prof

import (
	"pimds/internal/obs"
	"pimds/internal/sim"
)

// Component is a latency-model component to which virtual time is
// attributed.
type Component uint8

const (
	// CompMemory: vault/DRAM/LLC accesses (Lpim, LpimRemote, Lcpu, Lllc).
	CompMemory Component = iota
	// CompMessage: time on the wire, at most Lmessage per hop.
	CompMessage
	// CompAtomic: the serialized atomic operations themselves (Latomic).
	CompAtomic
	// CompQueueing: waiting — in a core's buffer behind other
	// messages, for injection bandwidth, for an atomic line to free
	// up, parked inside a core awaiting a protocol barrier, or at the
	// client awaiting an unsolicited continuation.
	CompQueueing
	// CompCombiner: waiting in a combiner's buffer to be picked up by
	// a batch (TakeQueued), the cost the combining optimization trades
	// against per-message handling.
	CompCombiner
	// CompService: handler bookkeeping — Epsilon steps, Compute time,
	// send overhead, and client-side work between ops.
	CompService

	numComponents = 6
)

var compNames = [numComponents]string{
	"memory", "message", "atomic", "queueing", "combiner_wait", "service",
}

// String returns the component's stable snake_case name as used in
// reports and folded stacks.
func (c Component) String() string {
	if int(c) < len(compNames) {
		return compNames[c]
	}
	return "unknown"
}

// Components lists all component names in declaration order.
func Components() []string {
	out := make([]string, numComponents)
	copy(out, compNames[:])
	return out
}

// reqState is the profiler's view of where a request currently is.
type reqState uint8

const (
	// stClientActive: the client CPU is executing on the request's
	// behalf (building it, or processing its response).
	stClientActive reqState = iota
	// stNetRequest: one or more request messages are in flight toward
	// serving cores.
	stNetRequest
	// stServing: a core's handler is executing with this request
	// located at it.
	stServing
	// stParked: a core finished a handler run holding this request
	// without replying (e.g. stashed behind a handoff barrier).
	stParked
	// stNetReply: the reply is in flight back to the client.
	stNetReply
	// stClientWait: the client processed a message for this request
	// but neither completed it nor sent anything — it is waiting for
	// an unsolicited continuation (e.g. an ownership notification).
	stClientWait
)

// request is one in-flight logical operation.
type request struct {
	client sim.CoreID
	kind   int // message kind of the first request send; -1 until known
	issued sim.Time
	lastT  sim.Time // attribution cursor; [issued, lastT] is fully attributed
	state  reqState
	loc    sim.CoreID // serving/parking core while stServing/stParked

	replyID uint64
	comp    [numComponents]int64
	spans   []Span

	msgs     int // messages sent on this request's behalf
	hops     int // times a core picked the request up
	combined bool
	batch    int // largest batch the request was served in
	done     bool
}

// msgState tracks one in-flight tracked message.
type msgState struct {
	req         *request
	reply       bool
	deliveredAt sim.Time
	delivered   bool
}

// handlerRun tracks one core's current handler run for batch-size
// accounting.
type handlerRun struct {
	members []*request
	count   int // messages consumed this run, tracked or not
}

// Options configures a Profiler.
type Options struct {
	// Structure names the data structure under test; it becomes the
	// middle frame of folded stacks.
	Structure string
	// KindName maps message kinds to names (e.g. engine.KindName).
	// Nil falls back to "kind_NN".
	KindName func(kind int) string
	// TopN bounds the slowest-request drill-down list (default 5).
	TopN int
	// SpanCap bounds the span trail kept per request (default 64).
	SpanCap int
}

// Profiler is a sim.Observer. It must be attached with Engine.Attach
// before clients start. Not safe for concurrent use; the simulation is
// single-goroutine.
type Profiler struct {
	cfg sim.Config
	opt Options

	active  map[sim.CoreID]*request   // in-flight request per client CPU
	msgs    map[uint64]*msgState      // tracked in-flight messages
	located map[sim.CoreID][]*request // requests at a serving core
	runs    map[sim.CoreID]*handlerRun

	kinds      map[int]*kindAgg
	slowest    []*Record // kept sorted, len <= TopN
	completedN uint64

	// OnComplete, when set, is invoked with every completed request's
	// record. It exists for tests (e.g. the exact-sum property test);
	// simulated code must never install or read it.
	OnComplete func(*Record)
}

// kindAgg aggregates completed requests of one kind.
type kindAgg struct {
	count    uint64
	totalPS  int64
	lat      obs.Histogram
	comp     [numComponents]int64
	combined uint64
	batchSum uint64
	msgSum   uint64
	hopSum   uint64
}

// New creates a profiler for e's configuration. Attach it with
// e.Attach(p) before starting clients.
func New(e *sim.Engine, opt Options) *Profiler {
	if opt.TopN <= 0 {
		opt.TopN = 5
	}
	if opt.SpanCap <= 0 {
		opt.SpanCap = 64
	}
	if opt.KindName == nil {
		opt.KindName = e.KindName
	}
	return &Profiler{
		cfg:     e.Config(),
		opt:     opt,
		active:  make(map[sim.CoreID]*request),
		msgs:    make(map[uint64]*msgState),
		located: make(map[sim.CoreID][]*request),
		runs:    make(map[sim.CoreID]*handlerRun),
		kinds:   make(map[int]*kindAgg),
	}
}

// --- cursor helpers ---------------------------------------------------

// span extends the request's span trail with [from, to] on core,
// merging into the previous span when contiguous and like-labelled.
func (r *request) span(comp Component, core sim.CoreID, from, to sim.Time, cap int) {
	if to <= from {
		return
	}
	if n := len(r.spans); n > 0 {
		last := &r.spans[n-1]
		if last.Component == comp.String() && last.Core == int(core) && last.EndPS == int64(from) {
			last.EndPS = int64(to)
			return
		}
	}
	if len(r.spans) >= cap {
		return
	}
	r.spans = append(r.spans, Span{
		Component: comp.String(), Core: int(core),
		StartPS: int64(from), EndPS: int64(to),
	})
}

// advanceTo attributes [lastT, at] to comp and moves the cursor.
func (p *Profiler) advanceTo(r *request, at sim.Time, comp Component, core sim.CoreID) {
	if at <= r.lastT {
		return
	}
	r.comp[comp] += int64(at - r.lastT)
	r.span(comp, core, r.lastT, at, p.opt.SpanCap)
	r.lastT = at
}

// chargeTo attributes a clock charge of d ending at at. Any uncovered
// gap before the charge (clock advanced by means the profiler cannot
// see — there are none today) is conservatively booked as service.
func (p *Profiler) chargeTo(r *request, at sim.Time, comp Component, d sim.Time, core sim.CoreID) {
	start := at - d
	if start > r.lastT {
		p.advanceTo(r, start, CompService, core)
	}
	p.advanceTo(r, at, comp, core)
}

// splitHop attributes the interval [lastT, deliveredAt] of one message
// hop: up to Lmessage is wire time, any excess (injection backpressure,
// FIFO clamping) is queueing.
func (p *Profiler) splitHop(r *request, deliveredAt sim.Time, core sim.CoreID) {
	if deliveredAt <= r.lastT {
		return
	}
	wire := deliveredAt - r.lastT
	if wire > p.cfg.Lmessage {
		wire = p.cfg.Lmessage
	}
	p.advanceTo(r, deliveredAt-wire, CompQueueing, core)
	p.advanceTo(r, deliveredAt, CompMessage, core)
}

func (p *Profiler) unlocate(r *request) {
	list := p.located[r.loc]
	for i, q := range list {
		if q == r {
			p.located[r.loc] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

func mapCost(k sim.CostKind) Component {
	switch k {
	case sim.CostMemory:
		return CompMemory
	case sim.CostAtomic:
		return CompAtomic
	case sim.CostAtomicWait:
		return CompQueueing
	default:
		return CompService
	}
}

// --- events ----------------------------------------------------------

// Observe implements sim.Observer: every event moves some request's
// cursor or its batch accounting.
func (p *Profiler) Observe(ev sim.Event) {
	switch ev.Kind {
	case sim.EventOpStart:
		p.opStart(ev.At, ev.Core)
	case sim.EventOpEnd:
		p.opEnd(ev.At, ev.Core)
	case sim.EventCharge:
		p.charge(ev.At, ev.Core, ev.Cost, ev.Dur)
	case sim.EventSend:
		p.sent(ev.At, ev.Msg)
	case sim.EventDeliver:
		if ms := p.msgs[ev.Msg.ID()]; ms != nil {
			ms.delivered = true
			ms.deliveredAt = ev.At
		}
	case sim.EventConsume, sim.EventCombine:
		p.consumed(ev.At, ev.Msg.ID(), ev.Core, ev.Kind == sim.EventCombine)
	case sim.EventHandlerEnd:
		p.handlerEnd(ev.At, ev.Core)
	}
}

// opStart begins tracking a logical operation for client cpu.
func (p *Profiler) opStart(at sim.Time, cpu sim.CoreID) {
	if old := p.active[cpu]; old != nil {
		old.done = true // defensive: a client restarted without an op end
	}
	p.active[cpu] = &request{
		client: cpu, kind: -1, issued: at, lastT: at, state: stClientActive,
	}
}

// opEnd completes cpu's in-flight operation and folds it into the
// aggregates.
func (p *Profiler) opEnd(at sim.Time, cpu sim.CoreID) {
	r := p.active[cpu]
	if r == nil || r.done {
		return
	}
	switch r.state {
	case stClientActive:
		p.advanceTo(r, at, CompService, cpu)
	case stServing:
		p.unlocate(r)
		p.advanceTo(r, at, CompQueueing, cpu)
	default:
		p.advanceTo(r, at, CompQueueing, cpu)
	}
	r.done = true
	delete(p.active, cpu)
	p.finalize(r, at)
}

// charge attributes a local-clock advance on core.
func (p *Profiler) charge(at sim.Time, core sim.CoreID, kind sim.CostKind, d sim.Time) {
	comp := mapCost(kind)
	if r := p.active[core]; r != nil && !r.done && r.state == stClientActive {
		p.chargeTo(r, at, comp, d, core)
	}
	for _, r := range p.located[core] {
		if !r.done {
			p.chargeTo(r, at, comp, d, core)
		}
	}
}

// sent classifies an outbound message: a request send from a client
// with an active op, or a reply toward a client whose op is located at
// the sender.
func (p *Profiler) sent(at sim.Time, m sim.Message) {
	id := m.ID()
	if r := p.active[m.From]; r != nil && !r.done {
		switch r.state {
		case stClientActive:
			p.advanceTo(r, at, CompService, m.From)
			if r.kind < 0 {
				r.kind = m.Kind
			}
			r.state = stNetRequest
			r.msgs++
			p.msgs[id] = &msgState{req: r}
			return
		case stNetRequest:
			// Additional fan-out (e.g. a discovery broadcast).
			r.msgs++
			p.msgs[id] = &msgState{req: r}
			return
		}
	}
	if r := p.active[m.To]; r != nil && !r.done {
		switch {
		case r.state == stServing && m.From == r.loc:
			p.unlocate(r)
			p.advanceTo(r, at, CompService, m.From)
		case r.state == stParked && m.From == r.loc:
			p.advanceTo(r, at, CompQueueing, m.From)
		case r.state == stClientWait:
			p.advanceTo(r, at, CompQueueing, m.From)
		default:
			return
		}
		r.state = stNetReply
		r.replyID = id
		p.msgs[id] = &msgState{req: r, reply: true}
	}
}

// consumed advances a request when one of its messages is picked up by
// a core, and tracks handler-run batch membership.
func (p *Profiler) consumed(at sim.Time, id uint64, core sim.CoreID, combined bool) {
	run := p.runs[core]
	if !combined || run == nil {
		run = &handlerRun{}
		p.runs[core] = run
	}
	run.count++

	ms := p.msgs[id]
	if ms == nil {
		return
	}
	delete(p.msgs, id)
	r := ms.req
	if r.done {
		return
	}

	if ms.reply {
		if r.state != stNetReply || id != r.replyID || core != r.client {
			return
		}
		deliveredAt := at
		if ms.delivered && ms.deliveredAt < at {
			deliveredAt = ms.deliveredAt
		}
		p.splitHop(r, deliveredAt, core)
		p.advanceTo(r, at, CompQueueing, core)
		r.state = stClientActive
		return
	}

	// A request message reached a core.
	switch r.state {
	case stNetRequest:
		deliveredAt := at
		if ms.delivered && ms.deliveredAt < at {
			deliveredAt = ms.deliveredAt
		}
		p.splitHop(r, deliveredAt, core)
		if combined {
			p.advanceTo(r, at, CompCombiner, core)
			r.combined = true
		} else {
			p.advanceTo(r, at, CompQueueing, core)
		}
	case stParked, stClientWait:
		// The protocol re-routed the request (e.g. after a handoff or
		// an ownership update): the whole detour was waiting.
		p.advanceTo(r, at, CompQueueing, core)
		if combined {
			r.combined = true
		}
	default:
		return
	}
	r.state = stServing
	r.loc = core
	r.hops++
	p.located[core] = append(p.located[core], r)
	run.members = append(run.members, r)
}

// handlerEnd closes a core's handler run: batch sizes are assigned to
// every member, still-located requests park, and a client that went
// idle without completing or sending transitions to waiting.
func (p *Profiler) handlerEnd(at sim.Time, core sim.CoreID) {
	if run := p.runs[core]; run != nil {
		for _, r := range run.members {
			if run.count > r.batch {
				r.batch = run.count
			}
		}
		delete(p.runs, core)
	}
	if list := p.located[core]; len(list) > 0 {
		for _, r := range list {
			if !r.done {
				p.advanceTo(r, at, CompService, core)
				r.state = stParked
			}
		}
		p.located[core] = list[:0]
	}
	if r := p.active[core]; r != nil && !r.done && r.state == stClientActive {
		p.advanceTo(r, at, CompService, core)
		r.state = stClientWait
	}
}

// --- completion -------------------------------------------------------

func (p *Profiler) kindName(kind int) string {
	if kind < 0 {
		return "unsent"
	}
	return p.opt.KindName(kind)
}

func (p *Profiler) finalize(r *request, end sim.Time) {
	p.completedN++
	agg := p.kinds[r.kind]
	if agg == nil {
		agg = &kindAgg{}
		p.kinds[r.kind] = agg
	}
	total := int64(end - r.issued)
	agg.count++
	agg.totalPS += total
	agg.lat.Observe(total)
	for i := range r.comp {
		agg.comp[i] += r.comp[i]
	}
	if r.combined {
		agg.combined++
	}
	batch := r.batch
	if batch == 0 {
		batch = 1
	}
	agg.batchSum += uint64(batch)
	agg.msgSum += uint64(r.msgs)
	agg.hopSum += uint64(r.hops)

	keep := len(p.slowest) < p.opt.TopN ||
		total > p.slowest[len(p.slowest)-1].LatencyPS
	if keep || p.OnComplete != nil {
		rec := p.record(r, end, total)
		if keep {
			p.insertSlowest(rec)
		}
		if p.OnComplete != nil {
			p.OnComplete(rec)
		}
	}
}

func (p *Profiler) record(r *request, end sim.Time, total int64) *Record {
	comps := make(map[string]int64, numComponents)
	for i, v := range r.comp {
		if v != 0 {
			comps[Component(i).String()] = v
		}
	}
	batch := r.batch
	if batch == 0 {
		batch = 1
	}
	return &Record{
		Kind:         p.kindName(r.kind),
		Client:       int(r.client),
		IssuedPS:     int64(r.issued),
		LatencyPS:    total,
		ComponentsPS: comps,
		Combined:     r.combined,
		Batch:        batch,
		Messages:     r.msgs,
		Hops:         r.hops,
		Spans:        r.spans,
	}
}

// insertSlowest keeps p.slowest sorted by descending latency (ties:
// earlier completion kept first), truncated to TopN.
func (p *Profiler) insertSlowest(rec *Record) {
	i := len(p.slowest)
	for i > 0 && p.slowest[i-1].LatencyPS < rec.LatencyPS {
		i--
	}
	p.slowest = append(p.slowest, nil)
	copy(p.slowest[i+1:], p.slowest[i:])
	p.slowest[i] = rec
	if len(p.slowest) > p.opt.TopN {
		p.slowest = p.slowest[:p.opt.TopN]
	}
}

// Completed returns the number of requests profiled to completion.
func (p *Profiler) Completed() uint64 { return p.completedN }

// InFlight returns the number of requests still being tracked.
func (p *Profiler) InFlight() int { return len(p.active) }
