package sim

import "pimds/internal/obs"

// Client is the closed-loop workload generator on one CPU: it sends a
// request, waits for the operation to complete and immediately issues
// the next request — the paper's "a CPU makes a new operation request
// immediately after its previous one completes". Every structure's
// clients are Clients; a protocol supplies only how a request is built
// and how the messages reaching the CPU are handled.
//
// MakeRequest builds request number seq (with To filled in); it may
// charge client-side costs first, such as a directory lookup. The
// optional OnResponse handles every message that reaches the CPU and
// reports whether it completes the in-flight operation. A protocol that
// retries a rejected request, applies a directory update, follows an
// ownership notification or runs a discovery sends from OnResponse and
// returns false. Without OnResponse every message completes the
// operation.
//
// The Client alone stamps issue times, counts completed operations on
// its CPU, records Latency, and reports the EventOpStart and EventOpEnd
// that the metrics layer and the profiler read, so every structure
// times an operation the same way: from its issue to the response that
// completes it, retries included.
type Client struct {
	MakeRequest func(c *CPU, seq uint64) Message
	OnResponse  func(c *CPU, m Message) bool

	// OnDone, if set, observes every completed operation in completion
	// order: the request as MakeRequest built it, the response that
	// completed it, and the operation's virtual-time interval (tests).
	OnDone func(req, resp Message, start, end Time)

	// Latency records the response time (issue to completion, in
	// picoseconds) of every completed operation.
	Latency *obs.Histogram

	Completed uint64

	cpu      *CPU
	seq      uint64
	req      Message // the in-flight request
	issuedAt Time
	stopped  bool
}

// NewClient creates a closed-loop client on a fresh CPU. Call Start to
// begin issuing requests.
func NewClient(e *Engine, makeRequest func(c *CPU, seq uint64) Message) *Client {
	cl := &Client{MakeRequest: makeRequest, Latency: &obs.Histogram{}}
	cl.cpu = e.NewCPU(cl.onMessage)
	return cl
}

// CPU returns the client's CPU.
func (cl *Client) CPU() *CPU { return cl.cpu }

// Start issues the client's first request as soon as its CPU is free.
func (cl *Client) Start() { cl.cpu.Exec(cl.issue) }

// Stop makes the client issue no further operation. The in-flight one
// still completes, retries included, so running the engine dry after
// stopping every client quiesces the system for exact checks.
func (cl *Client) Stop() { cl.stopped = true }

// Request returns the in-flight request as MakeRequest built it; a
// protocol retries by re-addressing and resending it.
func (cl *Client) Request() Message { return cl.req }

func (cl *Client) issue(c *CPU) {
	cl.issuedAt = c.clock
	if o := c.eng.observer; o != nil {
		o.Observe(Event{Kind: EventOpStart, At: c.clock, Core: c.id})
	}
	cl.req = cl.MakeRequest(c, cl.seq)
	c.Send(cl.req)
}

func (cl *Client) onMessage(c *CPU, m Message) {
	if cl.OnResponse != nil && !cl.OnResponse(c, m) {
		return
	}
	cl.Completed++
	c.CountOp()
	d := c.clock - cl.issuedAt
	cl.Latency.Observe(int64(d))
	if o := c.eng.observer; o != nil {
		o.Observe(Event{Kind: EventOpEnd, At: c.clock, Core: c.id, Msg: cl.req, Dur: d})
	}
	if cl.OnDone != nil {
		cl.OnDone(cl.req, m, cl.issuedAt, c.clock)
	}
	cl.seq++
	if !cl.stopped {
		cl.issue(c)
	}
}

// Meter measures steady-state throughput of a set of clients: run the
// simulation for a warmup period, snapshot completed operations, run
// for the measurement period, and report completed operations per
// (virtual) second.
type Meter struct {
	Engine  *Engine
	Clients []*Client
}

// snapshot sums completed operations across clients.
func (m *Meter) snapshot() uint64 {
	var total uint64
	for _, cl := range m.Clients {
		total += cl.Completed
	}
	return total
}

// Run starts every client, warms up for warmup, measures for measure,
// and returns (completed ops in window, ops per second).
func (m *Meter) Run(warmup, measure Time) (uint64, float64) {
	return Measure(m.Engine, StartAll(m.Clients), m.snapshot, warmup, measure)
}

// StartAll returns a start function for Measure that starts every
// closed-loop client, in order. It accepts any structure's client type.
func StartAll[C interface{ Start() }](clients []C) func() {
	return func() {
		for _, cl := range clients {
			cl.Start()
		}
	}
}

// OpsOfClients sums completed operations over the clients' CPUs; a
// snapshot function for Measure. It accepts any structure's client type.
func OpsOfClients[C interface{ CPU() *CPU }](clients []C) func() uint64 {
	return func() uint64 {
		var total uint64
		for _, cl := range clients {
			total += cl.CPU().Stats.Ops
		}
		return total
	}
}

// Measure is the generic steady-state throughput harness: it calls
// start to kick off the workload, runs the simulation for warmup,
// snapshots the completed-operation count, runs for measure, and
// returns (ops completed in the window, ops per virtual second).
func Measure(e *Engine, start func(), snapshot func() uint64, warmup, measure Time) (uint64, float64) {
	start()
	e.RunFor(warmup)
	before := snapshot()
	e.RunFor(measure)
	completed := snapshot() - before
	return completed, float64(completed) / measure.Seconds()
}

// OpsOfCPUs sums completed operations over CPUs; a snapshot function
// for Measure.
func OpsOfCPUs(cpus []*CPU) func() uint64 {
	return func() uint64 {
		var total uint64
		for _, c := range cpus {
			total += c.Stats.Ops
		}
		return total
	}
}

// OpsOfPIMCores sums completed operations over PIM cores.
func OpsOfPIMCores(cores []*PIMCore) func() uint64 {
	return func() uint64 {
		var total uint64
		for _, c := range cores {
			total += c.Stats.Ops
		}
		return total
	}
}

// Loop runs work on cpu in a closed loop: each iteration starts as soon
// as the previous one's charged costs complete. It models a CPU thread
// that "makes a new operation request immediately after its previous
// one completes" without message traffic (used by the simulated
// CPU-side baselines).
func Loop(cpu *CPU, work func(c *CPU)) {
	var loop func(c *CPU)
	loop = func(c *CPU) {
		work(c)
		cpu.Exec(loop)
	}
	cpu.Exec(loop)
}
