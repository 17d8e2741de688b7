package sim

// CostKind classifies one virtual-time charge on a core's local clock.
// It is deliberately coarser than the individual charge methods: the
// profiler maps kinds onto latency-model components.
type CostKind uint8

const (
	// CostMemory is a vault, DRAM or LLC access (Lpim, LpimRemote,
	// Lcpu, Lllc).
	CostMemory CostKind = iota
	// CostService is handler bookkeeping: Epsilon steps, Compute time
	// and send overhead.
	CostService
	// CostAtomic is the atomic operation itself (Latomic).
	CostAtomic
	// CostAtomicWait is time spent waiting for a contended atomic
	// line to serialize before the operation's own Latomic starts.
	CostAtomicWait
)

// EventKind says what an Event reports.
type EventKind uint8

const (
	// EventSend: Core finished sending Msg (virtual send time, before
	// the transfer delay).
	EventSend EventKind = iota
	// EventDeliver: Msg landed in the buffer of Core, its receiver,
	// which then holds Depth messages.
	EventDeliver
	// EventConsume: Core starts a handler run on Msg, the oldest
	// buffered message.
	EventConsume
	// EventCombine: Core drains Msg from its buffer in the middle of a
	// handler run (PIMCore.TakeQueued, the combining optimization).
	EventCombine
	// EventCharge: Core's local clock advanced by Dur to At, for a cost
	// of kind Cost.
	EventCharge
	// EventHandlerEnd: Core's handler run ends at its local clock At
	// after Dur of busy time. On a PIM core Msg is the message the run
	// served; on a CPU it is the zero Message, because a CPU's runs are
	// client bookkeeping that the tracers leave out.
	EventHandlerEnd
	// EventOpStart: the client on CPU Core issues a data-structure
	// operation.
	EventOpStart
	// EventOpEnd: the client on CPU Core completes its operation: Msg
	// is the request, Dur the latency from issue to completion.
	EventOpEnd
)

// Event is one observation of the simulated machine: Kind says what
// happened, At when and Core where; the other fields are set only by the
// kinds whose documentation names them.
type Event struct {
	Kind  EventKind
	At    Time
	Core  CoreID
	Msg   Message
	Cost  CostKind
	Dur   Time
	Depth int
}

// Observer sees every event of an engine it is attached to, on the
// simulation goroutine and in deterministic event order. Observers are
// write-only from the simulation's point of view: the engine and cores
// call into them and never read from them, so attaching one changes
// simulated results by exactly zero. WriterTracer, CountingTracer,
// ChromeTracer, the metrics layer (Engine.SetMetrics) and prof.Profiler
// are observers.
type Observer interface {
	Observe(ev Event)
}

// Attach makes o observe every later event, after the observers
// attached before it. Attach before starting clients: operations and
// messages already in flight are reported only in part.
func (e *Engine) Attach(o Observer) {
	switch cur := e.observer.(type) {
	case nil:
		e.observer = o
	case fanout:
		e.observer = append(cur, o)
	default:
		e.observer = fanout{cur, o}
	}
}

// fanout hands each event to several observers in attach order.
type fanout []Observer

func (f fanout) Observe(ev Event) {
	for _, o := range f {
		o.Observe(ev)
	}
}
