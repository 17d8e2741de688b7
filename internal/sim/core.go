package sim

import "fmt"

// CoreStats aggregates what a core did during a simulation.
type CoreStats struct {
	Messages uint64 // handler runs: messages processed from the inbox, plus CPU Exec runs
	Ops      uint64 // completed data-structure operations (protocol-defined)
	Busy     Time   // total virtual time spent executing handlers
}

// core is the run loop CPUs and PIM cores share. Both serve their
// message buffer in arrival order, one message per handler run: a run
// starts when the core is free, advances a local clock as the handler
// charges costs (Local, Compute, Send and the owner's memory accesses),
// and leaves the core busy until that clock. Handling one message per
// event (rather than draining the inbox) keeps the interleaving with
// newly arriving messages faithful: a message that arrives while the
// core is busy is served after the current one completes.
type core struct {
	eng     *Engine
	id      CoreID
	name    string        // "CPU 3", "PIM core 4": for panics
	pim     *PIMCore      // the owning PIM core; nil for a CPU
	handler func(Message) // the owner's handler; nil until installed

	inbox     []Message
	inboxHead int
	busyUntil Time
	scheduled bool
	running   bool
	clock     Time

	Stats CoreStats
}

// init registers the core with e under the given kind name.
func (c *core) init(e *Engine, ep endpoint, kind string) {
	c.eng = e
	c.id = e.register(ep)
	c.name = fmt.Sprintf("%s %d", kind, c.id)
}

// ID returns the core's engine-assigned identifier.
func (c *core) ID() CoreID { return c.id }

func (c *core) coreID() CoreID { return c.id }

// QueueLen returns the number of buffered, unprocessed messages.
func (c *core) QueueLen() int { return len(c.inbox) - c.inboxHead }

func (c *core) deliver(m Message) {
	c.inbox = append(c.inbox, m)
	if o := c.eng.observer; o != nil {
		o.Observe(Event{Kind: EventDeliver, At: c.eng.now, Core: c.id, Msg: m, Depth: c.QueueLen()})
	}
	c.maybeSchedule()
}

func (c *core) maybeSchedule() {
	if c.scheduled || c.running || c.inboxHead >= len(c.inbox) {
		return
	}
	c.scheduled = true
	at := max(c.eng.now, c.busyUntil)
	if c.pim != nil {
		at += c.pim.ServiceDelay
	}
	c.eng.Schedule(at, c.service)
}

// service processes exactly one message.
func (c *core) service() {
	c.scheduled = false
	m := c.inbox[c.inboxHead]
	c.inboxHead++
	if c.inboxHead == len(c.inbox) {
		c.inbox = c.inbox[:0]
		c.inboxHead = 0
	} else if c.inboxHead > 1024 && c.inboxHead*2 > len(c.inbox) {
		n := copy(c.inbox, c.inbox[c.inboxHead:])
		c.inbox = c.inbox[:n]
		c.inboxHead = 0
	}
	if c.handler == nil {
		panic(fmt.Sprintf("sim: %s received message with no handler", c.name))
	}
	if o := c.eng.observer; o != nil {
		o.Observe(Event{Kind: EventConsume, At: c.eng.now, Core: c.id, Msg: m})
	}
	start := c.begin()
	c.handler(m)
	if c.pim == nil {
		m = Message{} // see EventHandlerEnd
	}
	c.end(start, m)
	c.maybeSchedule()
}

// begin starts a handler run at the current virtual time and returns
// that time.
func (c *core) begin() Time {
	c.clock = c.eng.now
	c.running = true
	return c.clock
}

// end closes the handler run begun at start, which served the message
// served (zero for a CPU's run): the core stays busy until its local
// clock.
func (c *core) end(start Time, served Message) {
	c.running = false
	c.busyUntil = c.clock
	c.Stats.Messages++
	c.Stats.Busy += c.clock - start
	if o := c.eng.observer; o != nil {
		o.Observe(Event{Kind: EventHandlerEnd, At: c.clock, Core: c.id, Msg: served, Dur: c.clock - start})
	}
}

// advance moves the local clock by d and reports a non-zero charge.
func (c *core) advance(kind CostKind, d Time) {
	c.clock += d
	if o := c.eng.observer; o != nil && d > 0 {
		o.Observe(Event{Kind: EventCharge, At: c.clock, Core: c.id, Cost: kind, Dur: d})
	}
}

// mustRun panics if called outside a handler; every cost-charging
// method requires an active local clock.
func (c *core) mustRun(op string) {
	if !c.running {
		panic(fmt.Sprintf("sim: %s: %s outside handler", c.name, op))
	}
}

// Clock returns the core's local virtual time inside a handler.
func (c *core) Clock() Time {
	c.mustRun("Clock")
	return c.clock
}

// Local charges one L1/bookkeeping step (Epsilon). The paper's model
// treats these as negligible; the default Epsilon is zero but can be
// raised to study sensitivity.
func (c *core) Local() {
	c.mustRun("Local")
	c.advance(CostService, c.eng.cfg.Epsilon)
}

// Compute charges d of pure computation.
func (c *core) Compute(d Time) {
	c.mustRun("Compute")
	if d < 0 {
		panic("sim: negative compute time")
	}
	c.advance(CostService, d)
}

// Send transmits m (stamped From = this core) without waiting for
// delivery: the core continues immediately, which is exactly the
// pipelining of Section 5.2. Sending itself costs Epsilon.
func (c *core) Send(m Message) {
	c.mustRun("Send")
	m.From = c.id
	c.advance(CostService, c.eng.cfg.Epsilon)
	c.eng.send(c.clock, m)
}

// CountOp records one completed data-structure operation for
// throughput accounting.
func (c *core) CountOp() { c.Stats.Ops++ }
