package sim

import "pimds/internal/obs"

// Client is a closed-loop workload driver on one CPU: it sends a
// request, waits for the response, counts the completed operation and
// immediately issues the next request — the paper's "a CPU makes a new
// operation request immediately after its previous one completes".
//
// MakeRequest builds request number seq (with To filled in). The
// optional OnResponse inspects a response before the next request is
// issued; returning false stops the loop (used for protocols that
// handle retries themselves — a false return means "I resent the
// request myself, do not count an op or advance").
type Client struct {
	CPU         *CPU
	MakeRequest func(c *CPU, seq uint64) Message
	OnResponse  func(c *CPU, m Message) bool

	// Latency records the response time (request send to response
	// arrival, in picoseconds) of every completed operation.
	Latency *obs.Histogram

	seq       uint64
	issuedAt  Time
	reqKind   int // kind of the in-flight request, for per-kind latency
	Completed uint64
}

// NewClient creates a closed-loop client on a fresh CPU. Call Start to
// begin issuing requests.
func NewClient(e *Engine, makeRequest func(c *CPU, seq uint64) Message) *Client {
	cl := &Client{MakeRequest: makeRequest, Latency: &obs.Histogram{}}
	cl.CPU = e.NewCPU(cl.onMessage)
	return cl
}

// Start issues the client's first request as soon as its CPU is free.
func (cl *Client) Start() {
	cl.CPU.Exec(func(c *CPU) {
		cl.issuedAt = c.Clock()
		c.ProfOpStart()
		cl.send(c, cl.MakeRequest(c, cl.seq))
	})
}

// send transmits the request, remembering its kind for the per-kind
// latency metrics.
func (cl *Client) send(c *CPU, m Message) {
	cl.reqKind = m.Kind
	c.Send(m)
}

func (cl *Client) onMessage(c *CPU, m Message) {
	if cl.OnResponse != nil && !cl.OnResponse(c, m) {
		return
	}
	cl.Completed++
	c.CountOp()
	d := c.Clock() - cl.issuedAt
	cl.Latency.Observe(int64(d))
	c.ProfOpEnd()
	if met := c.eng.met; met != nil {
		met.opLatency(cl.reqKind, d)
	}
	cl.seq++
	cl.issuedAt = c.Clock()
	c.ProfOpStart()
	cl.send(c, cl.MakeRequest(c, cl.seq))
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
// snapshot function for Measure.
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
