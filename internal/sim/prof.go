package sim

// CostKind classifies one virtual-time charge on a core's local clock
// for the profiler. It is deliberately coarser than the individual
// charge methods: the profiler maps kinds onto latency-model
// components, and the simulation never reads profiler state back.
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

// Profiler observes fine-grained virtual-time events: per-charge cost
// attribution, message lifecycle (sent, delivered, consumed), handler
// boundaries, and logical operation boundaries marked by clients.
//
// Like Tracer and the metrics layer, a Profiler is strictly write-only
// from the simulation's point of view: the engine and cores call into
// it, never read from it, so an attached profiler changes simulated
// results by exactly zero. All hooks fire synchronously on the
// simulation goroutine in deterministic event order.
type Profiler interface {
	// OpStart marks the beginning of a logical data-structure
	// operation issued by the client CPU cpu at virtual time at.
	OpStart(at Time, cpu CoreID)
	// OpEnd marks the completion of cpu's in-flight operation.
	OpEnd(at Time, cpu CoreID)
	// Charge reports that core's local clock advanced by d, ending at
	// at, for a cost of the given kind.
	Charge(at Time, core CoreID, kind CostKind, d Time)
	// MsgSent fires when a message enters the network. id is a unique
	// engine-assigned message id (only stamped while profiling).
	MsgSent(at Time, id uint64, m Message)
	// MsgDelivered fires when the message reaches the receiver's
	// buffer.
	MsgDelivered(at Time, id uint64, m Message)
	// MsgConsumed fires when a core starts processing a buffered
	// message: combined=false for the message that triggered the
	// handler run, combined=true for messages drained mid-handler via
	// TakeQueued (combining).
	MsgConsumed(at Time, id uint64, core CoreID, combined bool)
	// HandlerEnd fires when a core's handler run finishes, at the
	// core's final local clock.
	HandlerEnd(at Time, core CoreID)
}

// SetProfiler attaches p to the engine (nil detaches). Attach before
// starting clients: requests already in flight are not profiled.
func (e *Engine) SetProfiler(p Profiler) { e.prof = p }
