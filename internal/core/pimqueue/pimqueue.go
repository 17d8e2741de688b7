// Package pimqueue implements the PIM-managed FIFO queue of Section 5
// (Algorithm 1) on the discrete-event simulator: the queue is a chain
// of segments spread across vaults; one PIM core holds the enqueue
// segment and one holds the dequeue segment, so the two ends proceed in
// parallel, and each core pipelines its replies (Section 5.2) — it
// starts the next request without waiting for the previous reply to be
// delivered.
//
// The package includes both CPU-notification schemes the paper
// discusses for segment handoff (blocking acknowledgements vs.
// non-blocking notify-and-continue with client re-discovery), the
// segment-length threshold, and a pipelining on/off switch, all as
// ablations. Virtual-time CPU baselines (F&A queue and flat-combining
// queue) reproduce the Section 5.2 comparison.
//
// A CPU client is a sim.Client, the simulator's one closed-loop
// client, which times, counts and profiles every operation (an empty
// dequeue included). The package supplies only the client's protocol:
// its beliefs about the two segment owners, owner notifications and
// acknowledgements, retries and discovery broadcasts.
package pimqueue

import (
	"fmt"
	"sort"

	"pimds/internal/obs"
	"pimds/internal/sim"
)

// Message kinds for the queue protocol.
const (
	MsgEnq = iota + 1 // request: Key = value
	MsgDeq
	MsgEnqOK    // response
	MsgEnqFail  // not the enqueue-segment owner: rediscover and retry
	MsgDeqOK    // response: Key = value
	MsgDeqEmpty // queue was empty
	MsgDeqFail  // not the dequeue-segment owner: rediscover and retry
	MsgNewEnqSeg
	MsgNewDeqSeg
	MsgEnqOwner // notification: From now owns the enqueue segment
	MsgDeqOwner // notification: From now owns the dequeue segment
	MsgOwnerAck // client → core, blocking scheme only
	MsgFindEnq  // client → every core: who owns the enqueue segment?
	MsgFindDeq
	MsgFindResp // core → client: OK = I own it; Val = 1 enq / 2 deq
	MsgSplit    // client → core: hand off the enqueue segment now (footnote 4)
)

// segment is one contiguous chunk of the queue, resident in its
// creating core's vault. seqno is a global creation counter: segments
// are consumed in exactly the order they were created, which Drain and
// the tests rely on.
type segment struct {
	seqno      uint64
	vals       []int64
	head       int // index of the oldest un-dequeued value
	nextSegCid sim.CoreID
}

func (s *segment) count() int { return len(s.vals) - s.head }

// QueueCore is one PIM core participating in the queue.
type QueueCore struct {
	q    *Queue
	idx  int
	core *sim.PIMCore

	enqSeg *segment
	deqSeg *segment
	segs   []*segment // local FIFO of segments created by this core

	// Blocking notification scheme state: while waiting for acks the
	// core stashes its data requests instead of serving them.
	acksWanted int
	acksGot    int
	stash      []sim.Message

	// Stats.
	Enqueues  uint64
	Dequeues  uint64
	Handoffs  uint64
	Failed    uint64
	Stashed   uint64
	SegsMade  uint64
	EmptyDeqs uint64
}

// Core exposes the underlying PIM core.
func (qc *QueueCore) Core() *sim.PIMCore { return qc.core }

// Queue is the PIM-managed FIFO queue.
type Queue struct {
	eng     *sim.Engine
	cores   []*QueueCore
	clients []*Client

	// Threshold is the segment length at which the enqueue segment is
	// handed to the next core (Algorithm 1 line 13).
	Threshold int

	// Pipelining enables the Section 5.2 optimization. When false,
	// the core stalls for one message latency after every reply,
	// modeling a core that waits for delivery before proceeding.
	Pipelining bool

	// BlockingNotify selects the notification scheme for segment
	// handoff: true = notify CPUs and wait for all acknowledgements
	// before serving further requests; false (default) = notify and
	// continue, clients re-discover the owner on failure.
	BlockingNotify bool

	// FatNodes enables the §5.1 enqueue-combining optimization: the
	// core drains all buffered enqueue requests and stores their
	// values as one "fat" array node, paying one vault write per
	// cache line (FatNodeWidth values) instead of one per value.
	FatNodes bool

	// FatNodeWidth is how many values share one vault write when
	// FatNodes is on (default 8 — a 64-byte line of int64s).
	FatNodeWidth int

	segSeq uint64 // creation counter for segment seqnos

	batchSize *obs.Histogram // fat-node combined-batch sizes (nil = disabled)
}

// New creates a PIM queue spread over n fresh PIM cores. The queue
// starts with one empty segment on core 0 acting as both the enqueue
// and the dequeue segment. threshold is the segment-split length.
func New(e *sim.Engine, n, threshold int) *Queue {
	if n < 1 || threshold < 1 {
		panic(fmt.Sprintf("pimqueue: need n (%d) >= 1 and threshold (%d) >= 1", n, threshold))
	}
	q := &Queue{eng: e, Threshold: threshold, Pipelining: true}
	for i := 0; i < n; i++ {
		qc := &QueueCore{q: q, idx: i}
		qc.core = e.NewPIMCore(qc.handle)
		q.cores = append(q.cores, qc)
	}
	first := &segment{}
	q.segSeq++
	q.cores[0].enqSeg = first
	q.cores[0].deqSeg = first
	q.cores[0].segs = append(q.cores[0].segs, first)
	q.instrument()
	return q
}

// Preload fills the queue with vals at no simulated cost, putting them
// all in the initial segment. With two or more cores it also moves the
// enqueue segment to core 1, establishing the paper's long-queue regime
// in which the two ends are served by different cores. Call before the
// simulation starts.
func (q *Queue) Preload(vals []int64) {
	first := q.cores[0].segs[0]
	first.vals = append(first.vals, vals...)
	if len(q.cores) >= 2 {
		next := q.cores[1]
		first.nextSegCid = next.core.ID()
		q.cores[0].enqSeg = nil
		seg := &segment{seqno: q.segSeq}
		q.segSeq++
		next.enqSeg = seg
		next.segs = append(next.segs, seg)
		for _, cl := range q.clients {
			cl.enqOwner = next.core.ID()
		}
	}
}

// Cores returns the participating cores (stats, tests).
func (q *Queue) Cores() []*QueueCore { return q.cores }

// EnqOwner returns the index of the core currently holding the enqueue
// segment, or -1 mid-handoff (tests, at quiescence).
func (q *Queue) EnqOwner() int {
	for i, qc := range q.cores {
		if qc.enqSeg != nil {
			return i
		}
	}
	return -1
}

// DeqOwner is the dequeue-side analogue of EnqOwner.
func (q *Queue) DeqOwner() int {
	for i, qc := range q.cores {
		if qc.deqSeg != nil {
			return i
		}
	}
	return -1
}

// Len returns the total number of queued values (quiescence).
func (q *Queue) Len() int {
	total := 0
	for _, qc := range q.cores {
		for _, s := range qc.segs {
			total += s.count()
		}
	}
	return total
}

// Drain returns all queued values in FIFO order without charging
// simulation cost (quiescence, tests). Segments are consumed in
// creation order, so sorting live segments by seqno yields FIFO order.
func (q *Queue) Drain() []int64 {
	var live []*segment
	for _, qc := range q.cores {
		live = append(live, qc.segs...)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seqno < live[j].seqno })
	var out []int64
	for _, s := range live {
		out = append(out, s.vals[s.head:]...)
	}
	return out
}

// reply sends a response and applies the pipelining switch.
func (qc *QueueCore) reply(c *sim.PIMCore, m sim.Message) {
	c.Send(m)
	if !qc.q.Pipelining {
		// Without pipelining the core blocks until the reply is
		// delivered.
		c.Compute(qc.q.eng.Config().Lmessage)
	}
}

// handle is the PIM-core program: Algorithm 1 plus notifications.
func (qc *QueueCore) handle(c *sim.PIMCore, m sim.Message) {
	switch m.Kind {
	case MsgEnq, MsgDeq, MsgFindEnq, MsgFindDeq:
		if qc.acksWanted > qc.acksGot {
			// Blocking scheme: hold data traffic until every client
			// acknowledged the ownership change.
			qc.stash = append(qc.stash, m)
			qc.Stashed++
			return
		}
	}
	switch m.Kind {
	case MsgEnq:
		qc.handleEnq(c, m)
	case MsgDeq:
		qc.handleDeq(c, m)
	case MsgSplit:
		// The paper's footnote-4 alternative: a CPU, not the core's
		// own threshold, decides when to create a new segment.
		c.Local()
		if qc.enqSeg != nil {
			qc.splitEnqSeg(c)
		}
	case MsgNewEnqSeg:
		qc.handleNewEnqSeg(c)
	case MsgNewDeqSeg:
		qc.handleNewDeqSeg(c)
	case MsgOwnerAck:
		qc.acksGot++
		if qc.acksGot == qc.acksWanted {
			qc.acksWanted, qc.acksGot = 0, 0
			stash := qc.stash
			qc.stash = nil
			for _, sm := range stash {
				qc.handle(c, sm)
			}
		}
	case MsgFindEnq:
		c.Local()
		qc.reply(c, sim.Message{To: m.From, Kind: MsgFindResp, Val: 1, OK: qc.enqSeg != nil})
	case MsgFindDeq:
		c.Local()
		qc.reply(c, sim.Message{To: m.From, Kind: MsgFindResp, Val: 2, OK: qc.deqSeg != nil})
	default:
		panic(fmt.Sprintf("pimqueue: core %d: unknown message kind %d", qc.idx, m.Kind))
	}
}

// handleEnq is Algorithm 1's enq(cid, u).
func (qc *QueueCore) handleEnq(c *sim.PIMCore, m sim.Message) {
	if qc.enqSeg == nil {
		c.Local()
		qc.Failed++
		qc.reply(c, sim.Message{To: m.From, Kind: MsgEnqFail})
		return
	}
	if qc.q.FatNodes {
		qc.handleEnqFat(c, m)
	} else {
		// Append the node: one vault write for the node, two L1
		// accesses to read and update the segment's head pointer and
		// count.
		qc.enqSeg.vals = append(qc.enqSeg.vals, m.Key)
		c.Write()
		c.Local()
		c.Local()
		qc.Enqueues++
		c.CountOp()
		qc.reply(c, sim.Message{To: m.From, Kind: MsgEnqOK})
	}

	if qc.enqSeg != nil && qc.enqSeg.count() > qc.q.Threshold {
		qc.splitEnqSeg(c)
	}
}

// splitEnqSeg hands the enqueue segment to the next core (round robin)
// — Algorithm 1 lines 13-17.
func (qc *QueueCore) splitEnqSeg(c *sim.PIMCore) {
	next := qc.q.cores[(qc.idx+1)%len(qc.q.cores)]
	c.Send(sim.Message{To: next.core.ID(), Kind: MsgNewEnqSeg})
	qc.enqSeg.nextSegCid = next.core.ID()
	c.Local()
	qc.enqSeg = nil
	qc.Handoffs++
}

// handleEnqFat serves m plus every buffered enqueue as one fat node
// (§5.1): all values are appended together, paying one vault write per
// FatNodeWidth values. Buffered non-enqueue messages are re-dispatched
// afterwards in arrival order.
func (qc *QueueCore) handleEnqFat(c *sim.PIMCore, m sim.Message) {
	batch := c.TakeQueued([]sim.Message{m}, -1)
	width := qc.q.FatNodeWidth
	if width < 1 {
		width = 8
	}
	var others []sim.Message
	values := 0
	for _, bm := range batch {
		if bm.Kind != MsgEnq {
			others = append(others, bm)
			continue
		}
		qc.enqSeg.vals = append(qc.enqSeg.vals, bm.Key)
		values++
		if (values-1)%width == 0 { // first value of each fat node
			c.Write()
		}
		qc.Enqueues++
		c.CountOp()
		qc.reply(c, sim.Message{To: bm.From, Kind: MsgEnqOK})
	}
	qc.q.batchSize.Observe(int64(values))
	c.Local()
	c.Local()
	for _, om := range others {
		qc.handle(c, om)
	}
}

// handleDeq is Algorithm 1's deq(cid).
func (qc *QueueCore) handleDeq(c *sim.PIMCore, m sim.Message) {
	if qc.deqSeg == nil {
		c.Local()
		qc.Failed++
		qc.reply(c, sim.Message{To: m.From, Kind: MsgDeqFail})
		return
	}
	if qc.deqSeg.count() > 0 {
		// One vault read for the node, two L1 accesses for the tail
		// pointer (Section 5.2's cost accounting).
		v := qc.deqSeg.vals[qc.deqSeg.head]
		qc.deqSeg.head++
		c.Read()
		c.Local()
		c.Local()
		qc.Dequeues++
		c.CountOp()
		qc.reply(c, sim.Message{To: m.From, Kind: MsgDeqOK, Key: v})
		return
	}
	if qc.deqSeg == qc.enqSeg {
		// The whole queue is empty (Algorithm 1 line 31).
		c.Local()
		qc.EmptyDeqs++
		c.CountOp()
		qc.reply(c, sim.Message{To: m.From, Kind: MsgDeqEmpty})
		return
	}
	// This segment is exhausted; pass the dequeue role to the core
	// holding the next segment and tell the client to retry.
	c.Send(sim.Message{To: qc.deqSeg.nextSegCid, Kind: MsgNewDeqSeg})
	qc.retireDeqSeg()
	qc.deqSeg = nil
	qc.Handoffs++
	c.Local()
	qc.Failed++
	qc.reply(c, sim.Message{To: m.From, Kind: MsgDeqFail})
}

// retireDeqSeg drops the exhausted dequeue segment from the local
// segment FIFO.
func (qc *QueueCore) retireDeqSeg() {
	for i, s := range qc.segs {
		if s == qc.deqSeg {
			qc.segs = append(qc.segs[:i], qc.segs[i+1:]...)
			qc.core.Vault().RecordFree()
			return
		}
	}
}

// handleNewEnqSeg is Algorithm 1's newEnqSeg().
func (qc *QueueCore) handleNewEnqSeg(c *sim.PIMCore) {
	qc.enqSeg = &segment{seqno: qc.q.segSeq}
	qc.q.segSeq++
	qc.segs = append(qc.segs, qc.enqSeg)
	qc.core.Vault().RecordAlloc()
	qc.SegsMade++
	c.Write() // allocate/initialize the segment in the vault
	qc.notifyClients(c, MsgEnqOwner)
}

// handleNewDeqSeg is Algorithm 1's newDeqSeg().
func (qc *QueueCore) handleNewDeqSeg(c *sim.PIMCore) {
	if len(qc.segs) == 0 {
		panic(fmt.Sprintf("pimqueue: core %d asked for a dequeue segment but has none", qc.idx))
	}
	qc.deqSeg = qc.segs[0]
	c.Local()
	qc.notifyClients(c, MsgDeqOwner)
}

// notifyClients tells every client CPU about an ownership change, and
// in the blocking scheme arms the ack barrier.
func (qc *QueueCore) notifyClients(c *sim.PIMCore, kind int) {
	for _, cl := range qc.q.clients {
		c.Send(sim.Message{To: cl.CPU().ID(), Kind: kind})
	}
	if qc.q.BlockingNotify {
		qc.acksWanted += len(qc.q.clients)
	}
}
