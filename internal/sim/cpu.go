package sim

// AtomicLine models one contended cache line targeted by CPU atomic
// operations. Following Section 3, k concurrent atomics on the same
// line serialize: they complete at Latomic, 2·Latomic, …, k·Latomic.
// The line keeps the time at which it next becomes free.
type AtomicLine struct {
	nextFree Time
	Ops      uint64 // completed atomic operations on this line
}

// acquire serializes one atomic starting no earlier than now and
// returns its completion time.
func (l *AtomicLine) acquire(now, cost Time) Time {
	start := now
	if l.nextFree > start {
		start = l.nextFree
	}
	done := start + cost
	l.nextFree = done
	l.Ops++
	return done
}

// CPUHandler is invoked once per message arriving at a CPU, in arrival
// order — typically a response from a PIM core, upon which a
// closed-loop client issues its next request.
type CPUHandler func(c *CPU, m Message)

// CPU is a full-fledged CPU core. Unlike a PIM core it may use atomic
// operations and benefits from the last-level cache, but its memory
// accesses cost Lcpu. Its run loop is the shared core's.
type CPU struct {
	core
}

// NewCPU registers a new CPU core.
func (e *Engine) NewCPU(handler CPUHandler) *CPU {
	c := &CPU{}
	c.init(e, c, "CPU")
	c.SetHandler(handler)
	return c
}

// SetHandler installs the CPU's message handler.
func (c *CPU) SetHandler(h CPUHandler) {
	c.handler = nil
	if h != nil {
		c.handler = func(m Message) { h(c, m) }
	}
}

// Exec schedules fn to run on this CPU as soon as it is free. It is the
// way simulations kick off client loops at time zero and how CPU-side
// algorithms (e.g. simulated baselines) run work that is not a response
// to a message.
func (c *CPU) Exec(fn func(*CPU)) {
	c.eng.Schedule(max(c.eng.now, c.busyUntil), func() {
		// The CPU may have become busy between scheduling and
		// firing (e.g. a message was serviced); requeue after it.
		if c.running || c.busyUntil > c.eng.now {
			c.Exec(fn)
			return
		}
		start := c.begin()
		fn(c)
		c.end(start, Message{})
		c.maybeSchedule()
	})
}

// MemRead charges one memory load (Lcpu).
func (c *CPU) MemRead() {
	c.mustRun("MemRead")
	c.advance(CostMemory, c.eng.cfg.Lcpu)
}

// MemWrite charges one memory store (Lcpu).
func (c *CPU) MemWrite() {
	c.mustRun("MemWrite")
	c.advance(CostMemory, c.eng.cfg.Lcpu)
}

// MemReadN charges n memory loads.
func (c *CPU) MemReadN(n int) {
	c.mustRun("MemReadN")
	if n < 0 {
		panic("sim: negative access count")
	}
	c.advance(CostMemory, Time(n)*c.eng.cfg.Lcpu)
}

// LLCRead charges one last-level-cache load (Lllc).
func (c *CPU) LLCRead() {
	c.mustRun("LLCRead")
	c.advance(CostMemory, c.eng.cfg.Lllc)
}

// LLCWrite charges one last-level-cache store (Lllc).
func (c *CPU) LLCWrite() {
	c.mustRun("LLCWrite")
	c.advance(CostMemory, c.eng.cfg.Lllc)
}

// Atomic performs one atomic operation (CAS, F&A, …) on line,
// serializing with other atomics on the same line per Section 3. The
// CPU blocks until its atomic completes.
func (c *CPU) Atomic(line *AtomicLine) {
	c.mustRun("Atomic")
	cost := c.eng.cfg.Latomic
	done := line.acquire(c.clock, cost)
	c.advance(CostAtomicWait, done-cost-c.clock)
	c.advance(CostAtomic, cost)
}
