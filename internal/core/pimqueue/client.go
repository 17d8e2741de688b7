package pimqueue

import (
	"fmt"

	"pimds/internal/sim"
)

// Role selects what a queue client does in its closed loop.
type Role int

// Client roles.
const (
	Enqueuer Role = iota // only enqueues
	Dequeuer             // only dequeues
	Mixed                // alternates enqueue / dequeue
)

// Client is a closed-loop CPU client of the PIM queue: a sim.Client
// whose protocol state is its belief of which cores own the enqueue and
// dequeue segments, updated by owner notifications. When a request
// fails because the belief was stale, it either retries at the newly
// learned owner or broadcasts a discovery query to every core (the
// paper's non-blocking scheme).
type Client struct {
	*sim.Client
	q    *Queue
	idx  int
	role Role

	enqOwner sim.CoreID
	deqOwner sim.CoreID

	nextEnq   bool  // Mixed role: alternate
	seq       int64 // per-client enqueue sequence number
	searching int   // 0 = no, 1 = enq, 2 = deq
	negatives int   // discovery replies saying "not me"

	// AckDelay, when positive, makes this client a "slow CPU": it
	// withholds ownership acknowledgements (blocking scheme) for this
	// long — the failure mode the paper gives for preferring the
	// non-blocking notification scheme ("if there is a slow CPU core
	// that doesn't reply in time, the PIM core has to wait for it and
	// therefore other CPUs cannot have their requests executed").
	AckDelay sim.Time

	// SplitEvery, when positive, implements the paper's footnote-4
	// alternative: this client asks the enqueue core to create a new
	// segment after every SplitEvery successful enqueues, instead of
	// relying on the core's own length threshold.
	SplitEvery int
	sinceSplit int

	// Stats.
	Enqueued   uint64
	Dequeued   uint64
	Empty      uint64
	Retries    uint64
	Discovered uint64
}

// NewClient registers a closed-loop client with the given role. Call
// Start to begin issuing requests.
func (q *Queue) NewClient(role Role) *Client {
	cl := &Client{q: q, idx: len(q.clients), role: role}
	cl.Client = sim.NewClient(q.eng, cl.request)
	cl.OnResponse = cl.onMessage
	// Seed owner beliefs from the current owners (Preload may already
	// have moved the enqueue segment off core 0); -1 mid-handoff falls
	// back to core 0 and the failure/rediscovery path corrects it.
	cl.enqOwner = q.cores[0].core.ID()
	cl.deqOwner = q.cores[0].core.ID()
	if i := q.EnqOwner(); i >= 0 {
		cl.enqOwner = q.cores[i].core.ID()
	}
	if i := q.DeqOwner(); i >= 0 {
		cl.deqOwner = q.cores[i].core.ID()
	}
	q.clients = append(q.clients, cl)
	return cl
}

// request builds the client's next operation by role. An enqueued
// value encodes (client, seq) so tests can check exactly-once delivery
// and per-producer FIFO order.
func (cl *Client) request(*sim.CPU, uint64) sim.Message {
	enq := cl.role == Enqueuer
	if cl.role == Mixed {
		enq = cl.nextEnq
		cl.nextEnq = !cl.nextEnq
	}
	if !enq {
		return sim.Message{To: cl.deqOwner, Kind: MsgDeq}
	}
	v := int64(cl.idx)<<32 | cl.seq
	cl.seq++
	return sim.Message{To: cl.enqOwner, Kind: MsgEnq, Key: v}
}

// retry resends the in-flight request to the believed owner of its end
// of the queue. A failed enqueue's value was never stored (the core
// rejected it), so the same value goes again.
func (cl *Client) retry(c *sim.CPU) {
	m := cl.Request()
	m.To = cl.deqOwner
	if m.Kind == MsgEnq {
		m.To = cl.enqOwner
	}
	c.Send(m)
}

func (cl *Client) onMessage(c *sim.CPU, m sim.Message) bool {
	switch m.Kind {
	case MsgEnqOK:
		cl.Enqueued++
		if cl.SplitEvery > 0 {
			cl.sinceSplit++
			if cl.sinceSplit >= cl.SplitEvery {
				cl.sinceSplit = 0
				c.Send(sim.Message{To: cl.enqOwner, Kind: MsgSplit})
			}
		}
		return true
	case MsgDeqOK:
		cl.Dequeued++
		return true
	case MsgDeqEmpty:
		cl.Empty++
		return true
	case MsgEnqFail:
		cl.Retries++
		if m.From != cl.enqOwner {
			// A notification already updated our belief; retry there.
			cl.retry(c)
		} else {
			cl.startSearch(c, 1)
		}
	case MsgDeqFail:
		cl.Retries++
		if m.From != cl.deqOwner {
			cl.retry(c)
		} else {
			cl.startSearch(c, 2)
		}
	case MsgEnqOwner:
		cl.enqOwner = m.From
		cl.ownerNotified(c, m.From, 1)
	case MsgDeqOwner:
		cl.deqOwner = m.From
		cl.ownerNotified(c, m.From, 2)
	case MsgFindResp:
		cl.handleFindResp(c, m)
	default:
		panic(fmt.Sprintf("pimqueue: client %d: unknown message kind %d", cl.idx, m.Kind))
	}
	return false
}

// ownerNotified handles a notification that from now owns one end of
// the queue (what = 1 enqueue, 2 dequeue): acknowledge it under the
// blocking scheme, and end a discovery for that end by retrying there.
func (cl *Client) ownerNotified(c *sim.CPU, from sim.CoreID, what int) {
	c.Local()
	if cl.q.BlockingNotify {
		cl.sendAck(c, from)
	}
	if cl.searching == what {
		cl.searching = 0
		cl.Discovered++
		cl.retry(c)
	}
}

// sendAck acknowledges an ownership notification, stalling first when
// the client is configured as a slow CPU.
func (cl *Client) sendAck(c *sim.CPU, to sim.CoreID) {
	if cl.AckDelay > 0 {
		c.Compute(cl.AckDelay)
	}
	c.Send(sim.Message{To: to, Kind: MsgOwnerAck})
}

// startSearch broadcasts a discovery query to every core (Section 5.1:
// "it needs to send messages to all PIM cores to ask which PIM core is
// currently in charge").
func (cl *Client) startSearch(c *sim.CPU, what int) {
	cl.searching = what
	cl.negatives = 0
	kind := MsgFindEnq
	if what == 2 {
		kind = MsgFindDeq
	}
	for _, qc := range cl.q.cores {
		c.Send(sim.Message{To: qc.core.ID(), Kind: kind})
	}
}

func (cl *Client) handleFindResp(c *sim.CPU, m sim.Message) {
	if cl.searching == 0 || int(m.Val) != cl.searching {
		return // stale response from an earlier search
	}
	if m.OK {
		cl.Discovered++
		if cl.searching == 1 {
			cl.enqOwner = m.From
		} else {
			cl.deqOwner = m.From
		}
		cl.searching = 0
		cl.retry(c)
		return
	}
	cl.negatives++
	if cl.negatives >= len(cl.q.cores) {
		// Every core denied ownership: the handoff message is still
		// in flight. Ask again.
		cl.startSearch(c, cl.searching)
	}
}
