package sim

// PIMHandler is the program of a PIM core: it is invoked once per
// inbound message, in arrival order. Inside the handler the core's
// local clock advances as the handler calls Read, Write, Compute and
// Send; when the handler returns, the core becomes available for its
// next message at the advanced clock.
//
// This is the paper's in-order PIM core: everything a core does is
// sequential, and pipelining (Section 5.2) falls out naturally because
// Send does not wait for delivery.
type PIMHandler func(c *PIMCore, m Message)

// PIMCore is a lightweight in-order core attached to one vault. It can
// read and write only its local vault (plain loads and stores — the
// architecture gives PIM cores no atomic operations), and communicates
// with everything else by messages.
type PIMCore struct {
	core
	vault *Vault

	// ServiceDelay postpones the start of each buffer-service pass by
	// a fixed amount. Protocols that batch their whole buffer per pass
	// (the combining linked-list) set it slightly above one round trip
	// (2·Lmessage) so that clients answered by the previous pass can
	// get their next request into the buffer — otherwise a saturated
	// core falls into lockstep with half its clients and batches never
	// grow past p/2. The cost is the same delay added to an idle
	// core's response latency.
	ServiceDelay Time
}

// NewPIMCore registers a new PIM core with its own vault. The handler
// may be nil at creation and set later with SetHandler (data structures
// need the core's ID to build their protocol before wiring the
// handler).
func (e *Engine) NewPIMCore(handler PIMHandler) *PIMCore {
	c := &PIMCore{}
	c.pim = c
	c.init(e, c, "PIM core")
	c.vault = &Vault{id: int(c.id), owner: c.id}
	c.SetHandler(handler)
	return c
}

// SetHandler installs the core's message handler.
func (c *PIMCore) SetHandler(h PIMHandler) {
	c.handler = nil
	if h != nil {
		c.handler = func(m Message) { h(c, m) }
	}
}

// Vault returns the core's local vault.
func (c *PIMCore) Vault() *Vault { return c.vault }

// Read charges one local-vault load (Lpim).
func (c *PIMCore) Read() {
	c.mustRun("Read")
	c.advance(CostMemory, c.eng.cfg.Lpim)
	c.vault.Reads++
}

// Write charges one local-vault store (Lpim).
func (c *PIMCore) Write() {
	c.mustRun("Write")
	c.advance(CostMemory, c.eng.cfg.Lpim)
	c.vault.Writes++
}

// RemoteRead charges one load of another core's vault (LpimRemote).
// It panics unless the configuration enables remote vault access
// (Section 2 footnote 2) and v is not the local vault.
func (c *PIMCore) RemoteRead(v *Vault) {
	c.mustRun("RemoteRead")
	c.remoteCheck(v)
	c.advance(CostMemory, c.eng.cfg.LpimRemote)
	v.Reads++
}

// RemoteWrite charges one store to another core's vault (LpimRemote).
func (c *PIMCore) RemoteWrite(v *Vault) {
	c.mustRun("RemoteWrite")
	c.remoteCheck(v)
	c.advance(CostMemory, c.eng.cfg.LpimRemote)
	v.Writes++
}

func (c *PIMCore) remoteCheck(v *Vault) {
	if c.eng.cfg.LpimRemote <= 0 {
		panic("sim: remote vault access disabled (LpimRemote = 0)")
	}
	if v.owner == c.id {
		panic("sim: RemoteRead/Write on the local vault; use Read/Write")
	}
}

// ReadN charges n local-vault loads.
func (c *PIMCore) ReadN(n int) {
	for i := 0; i < n; i++ {
		c.Read()
	}
}

// TakeQueued appends up to limit already-buffered messages to dst and
// removes them from the inbox (limit < 0 means all). It may only be
// called from inside the handler and models a core scanning its whole
// message buffer at once — the basis of the combining optimization of
// Section 4.1. Draining the buffer costs one Epsilon per message.
func (c *PIMCore) TakeQueued(dst []Message, limit int) []Message {
	c.mustRun("TakeQueued")
	for (limit < 0 || limit > 0) && c.inboxHead < len(c.inbox) {
		m := c.inbox[c.inboxHead]
		dst = append(dst, m)
		c.inboxHead++
		if o := c.eng.observer; o != nil {
			o.Observe(Event{Kind: EventCombine, At: c.clock, Core: c.id, Msg: m})
		}
		c.advance(CostService, c.eng.cfg.Epsilon)
		if limit > 0 {
			limit--
		}
	}
	if c.inboxHead == len(c.inbox) {
		c.inbox = c.inbox[:0]
		c.inboxHead = 0
	}
	return dst
}
