package sim

import (
	"container/heap"
	"fmt"

	"pimds/internal/obs"
)

// An event is a callback scheduled at a virtual time. Events with equal
// times fire in scheduling order (seq), which makes runs deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is the discrete-event scheduler. It owns virtual time, the
// pending-event heap and the registry of message endpoints (PIM cores
// and CPUs). An Engine is not safe for concurrent use; a simulation is
// a single-goroutine computation.
type Engine struct {
	cfg Config

	now       Time
	seq       uint64
	events    eventHeap
	processed uint64

	endpoints map[CoreID]endpoint
	nextID    CoreID
	sent      uint64        // messages sent so far; numbers each new one
	observer  Observer      // nil, one observer, or a fanout
	reg       *obs.Registry // installed by SetMetrics
	kindName  func(kind int) string

	// channels tracks per (sender, receiver) FIFO delivery state so
	// that the "messages from the same sender to the same receiver
	// are delivered in FIFO order" guarantee of Section 2 holds even
	// if a sender ever uses non-uniform message latencies.
	channels map[channelKey]*channelState

	// lastInject tracks each sender's last link-injection time when
	// Config.MessageGap models finite injection bandwidth.
	lastInject map[CoreID]Time
}

type channelKey struct{ from, to CoreID }

type channelState struct {
	lastArrival Time   // arrival time of the most recent message on this channel
	sent        uint64 // messages sent
}

// NewEngine returns an engine charging the latencies in cfg. It panics
// if cfg is invalid: a simulator with non-positive latencies would
// silently produce infinite throughput.
func NewEngine(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{
		cfg:        cfg,
		endpoints:  make(map[CoreID]endpoint),
		channels:   make(map[channelKey]*channelState),
		lastInject: make(map[CoreID]Time),
	}
}

// Config returns the engine's latency configuration.
func (e *Engine) Config() Config { return e.cfg }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events not yet executed.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn at virtual time at. Scheduling in the past panics:
// it would mean a causality bug in the calling data structure.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: at, seq: e.seq, fn: fn})
}

// After runs fn d after the current virtual time.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// step executes the earliest pending event and reports whether one
// existed.
func (e *Engine) step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(event)
	e.now = ev.at
	e.processed++
	ev.fn()
	return true
}

// Run executes events until none remain and returns the final time.
// Closed-loop clients never go idle, so most simulations use RunUntil.
func (e *Engine) Run() Time {
	for e.step() {
	}
	return e.now
}

// RunUntil executes events up to and including virtual time t, then
// advances the clock to exactly t. Events scheduled later remain
// pending, so a simulation can be resumed with further RunUntil calls.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
