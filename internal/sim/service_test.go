package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestTakeQueuedDrainsBatch: a handler can drain all already-arrived
// messages in one pass.
func TestTakeQueuedDrainsBatch(t *testing.T) {
	e := NewEngine(testConfig())
	var batches [][]int64
	pim := e.NewPIMCore(nil)
	pim.SetHandler(func(c *PIMCore, m Message) {
		msgs := c.TakeQueued([]Message{m}, -1)
		keys := make([]int64, len(msgs))
		for i, mm := range msgs {
			keys[i] = mm.Key
		}
		batches = append(batches, keys)
		c.ReadN(len(msgs)) // busy long enough for the next burst to pile up
	})
	cpu := e.NewCPU(nil)
	cpu.Exec(func(c *CPU) {
		for i := int64(0); i < 6; i++ {
			c.Send(Message{To: pim.ID(), Key: i})
		}
	})
	e.Run()
	// All six arrive at the same instant: the first service pass must
	// see the whole burst.
	if len(batches) != 1 || len(batches[0]) != 6 {
		t.Fatalf("batches = %v, want one batch of 6", batches)
	}
	for i, k := range batches[0] {
		if k != int64(i) {
			t.Fatalf("batch out of order: %v", batches[0])
		}
	}
}

// TestTakeQueuedLimit: the limit argument caps the drain.
func TestTakeQueuedLimit(t *testing.T) {
	e := NewEngine(testConfig())
	var sizes []int
	pim := e.NewPIMCore(nil)
	pim.SetHandler(func(c *PIMCore, m Message) {
		msgs := c.TakeQueued([]Message{m}, 1) // at most 1 extra
		sizes = append(sizes, len(msgs))
	})
	cpu := e.NewCPU(nil)
	cpu.Exec(func(c *CPU) {
		for i := int64(0); i < 5; i++ {
			c.Send(Message{To: pim.ID(), Key: i})
		}
	})
	e.Run()
	// 5 messages served in batches of ≤ 2: [2 2 1].
	if len(sizes) != 3 || sizes[0] != 2 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("batch sizes = %v, want [2 2 1]", sizes)
	}
}

// TestTakeQueuedOutsideHandlerPanics: inbox access is handler-only.
func TestTakeQueuedOutsideHandlerPanics(t *testing.T) {
	e := NewEngine(testConfig())
	pim := e.NewPIMCore(nil)
	defer func() {
		if recover() == nil {
			t.Error("TakeQueued outside handler should panic")
		}
	}()
	pim.TakeQueued(nil, -1)
}

// TestServiceDelayCollectsStragglers: with a service delay just above a
// round trip, clients answered by the previous pass rejoin the next
// batch (the combining list's batching mechanism).
func TestServiceDelayCollectsStragglers(t *testing.T) {
	run := func(delay Time) float64 {
		e := NewEngine(testConfig())
		var batchTotal, batches int
		pim := e.NewPIMCore(nil)
		pim.ServiceDelay = delay
		pim.SetHandler(func(c *PIMCore, m Message) {
			msgs := c.TakeQueued([]Message{m}, -1)
			batchTotal += len(msgs)
			batches++
			c.ReadN(100) // long service: 3µs per batch
			for _, mm := range msgs {
				c.Send(Message{To: mm.From, OK: true})
			}
		})
		clients := make([]*Client, 8)
		for i := range clients {
			clients[i] = NewClient(e, func(c *CPU, seq uint64) Message {
				return Message{To: pim.ID()}
			})
		}
		m := &Meter{Engine: e, Clients: clients}
		m.Run(100*Microsecond, 500*Microsecond)
		return float64(batchTotal) / float64(batches)
	}
	noDelay := run(0)
	withDelay := run(2*90*Nanosecond + Nanosecond)
	if withDelay < 7.5 {
		t.Errorf("avg batch with delay = %.2f, want ≈ 8", withDelay)
	}
	if noDelay > withDelay {
		t.Errorf("delay should not shrink batches: %.2f vs %.2f", noDelay, withDelay)
	}
}

// TestExecWhileBusyRequeues: Exec on a busy CPU runs after the current
// work completes.
func TestExecWhileBusyRequeues(t *testing.T) {
	e := NewEngine(testConfig())
	cpu := e.NewCPU(nil)
	var order []string
	cpu.Exec(func(c *CPU) {
		c.MemReadN(10) // busy until 900ns
		order = append(order, "first")
	})
	e.Schedule(100*Nanosecond, func() {
		cpu.Exec(func(c *CPU) {
			order = append(order, "second")
			if c.Clock() < 900*Nanosecond {
				t.Errorf("second exec ran at %v, want ≥ 900ns", c.Clock())
			}
		})
	})
	e.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v", order)
	}
}

// TestLoopClosedLoopThroughput: Loop iterations are back-to-back in
// virtual time.
func TestLoopClosedLoopThroughput(t *testing.T) {
	e := NewEngine(testConfig())
	cpu := e.NewCPU(nil)
	Loop(cpu, func(c *CPU) {
		c.MemRead() // 90ns per iteration
		c.CountOp()
	})
	completed, ops := Measure(e, func() {}, OpsOfCPUs([]*CPU{cpu}), 9*Microsecond, 90*Microsecond)
	// 90µs / 90ns = 1000 ops exactly (ops/s comparison is subject to
	// float rounding, so compare the count).
	if completed != 1000 {
		t.Errorf("loop completed = %d (%v ops/s), want 1000", completed, ops)
	}
}

// TestOpsOfPIMCores sums across cores.
func TestOpsOfPIMCores(t *testing.T) {
	e := NewEngine(testConfig())
	a := e.NewPIMCore(echoHandler(1))
	b := e.NewPIMCore(echoHandler(1))
	cl1 := NewClient(e, func(c *CPU, seq uint64) Message { return Message{To: a.ID()} })
	cl2 := NewClient(e, func(c *CPU, seq uint64) Message { return Message{To: b.ID()} })
	m := &Meter{Engine: e, Clients: []*Client{cl1, cl2}}
	m.Run(0, 100*Microsecond)
	snap := OpsOfPIMCores([]*PIMCore{a, b})
	if got := snap(); got != a.Stats.Ops+b.Stats.Ops || got == 0 {
		t.Errorf("OpsOfPIMCores = %d", got)
	}
}

// TestStartAllOpsOfClients drives clients through the generic start and
// snapshot helpers: the CPU op sum matches the clients' own counts.
func TestStartAllOpsOfClients(t *testing.T) {
	e := NewEngine(testConfig())
	core := e.NewPIMCore(echoHandler(1))
	var cls []*Client
	for i := 0; i < 3; i++ {
		cls = append(cls, NewClient(e, func(c *CPU, seq uint64) Message { return Message{To: core.ID()} }))
	}
	completed, _ := Measure(e, StartAll(cls), OpsOfClients(cls), 0, 100*Microsecond)
	var want uint64
	for _, cl := range cls {
		want += cl.Completed
	}
	if completed == 0 || completed != want {
		t.Errorf("OpsOfClients counted %d, clients completed %d", completed, want)
	}
}

// TestInboxCompaction exercises the inbox head-compaction path with
// thousands of queued messages.
func TestInboxCompaction(t *testing.T) {
	e := NewEngine(testConfig())
	served := 0
	pim := e.NewPIMCore(func(c *PIMCore, m Message) {
		served++
		c.Local()
	})
	cpu := e.NewCPU(nil)
	cpu.Exec(func(c *CPU) {
		for i := 0; i < 5000; i++ {
			c.Send(Message{To: pim.ID(), Key: int64(i)})
		}
	})
	e.Run()
	if served != 5000 {
		t.Fatalf("served = %d, want 5000", served)
	}
}

// TestPerChannelFIFOProperty: random interleavings of sends on several
// channels always deliver per-channel in order.
func TestPerChannelFIFOProperty(t *testing.T) {
	f := func(seedRaw uint8) bool {
		e := NewEngine(testConfig())
		const senders = 3
		received := map[CoreID][]int64{}
		pim := e.NewPIMCore(func(c *PIMCore, m Message) {
			received[m.From] = append(received[m.From], m.Key)
			c.ReadN(int(seedRaw%3) + 1)
		})
		for s := 0; s < senders; s++ {
			s := s
			cpu := e.NewCPU(nil)
			cpu.Exec(func(c *CPU) {
				for i := int64(0); i < 20; i++ {
					c.Compute(Time(int64(seedRaw)+i*int64(s+1)) * Nanosecond)
					c.Send(Message{To: pim.ID(), Key: i})
				}
			})
		}
		e.Run()
		for _, keys := range received {
			for i := 1; i < len(keys); i++ {
				if keys[i] <= keys[i-1] {
					return false
				}
			}
			if len(keys) != 20 {
				return false
			}
		}
		return len(received) == senders
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRemoteVaultAccess: remote accesses charge LpimRemote against the
// target vault's counters.
func TestRemoteVaultAccess(t *testing.T) {
	cfg := testConfig()
	cfg.LpimRemote = 60 * Nanosecond
	e := NewEngine(cfg)
	target := e.NewPIMCore(func(c *PIMCore, m Message) {})
	var clk Time
	src := e.NewPIMCore(nil)
	src.SetHandler(func(c *PIMCore, m Message) {
		c.RemoteRead(target.Vault())
		c.RemoteWrite(target.Vault())
		clk = c.Clock()
	})
	cpu := e.NewCPU(nil)
	cpu.Exec(func(c *CPU) { c.Send(Message{To: src.ID()}) })
	e.Run()
	// Handler starts at 90ns (message arrival), + 2×60ns remote.
	if want := 210 * Nanosecond; clk != want {
		t.Errorf("clock = %v, want %v", clk, want)
	}
	if target.Vault().Reads != 1 || target.Vault().Writes != 1 {
		t.Errorf("target vault counters: %d/%d", target.Vault().Reads, target.Vault().Writes)
	}
}

// TestRemoteAccessGuards: disabled remote access and local-vault misuse
// both panic.
func TestRemoteAccessGuards(t *testing.T) {
	runPanics := func(name string, cfg Config, f func(c *PIMCore, other *PIMCore)) {
		e := NewEngine(cfg)
		other := e.NewPIMCore(func(c *PIMCore, m Message) {})
		core := e.NewPIMCore(nil)
		core.SetHandler(func(c *PIMCore, m Message) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f(c, other)
		})
		cpu := e.NewCPU(nil)
		cpu.Exec(func(c *CPU) { c.Send(Message{To: core.ID()}) })
		e.Run()
	}
	runPanics("remote access when disabled", testConfig(), func(c *PIMCore, other *PIMCore) {
		c.RemoteRead(other.Vault())
	})
	enabled := testConfig()
	enabled.LpimRemote = 60 * Nanosecond
	runPanics("remote access to own vault", enabled, func(c *PIMCore, other *PIMCore) {
		c.RemoteWrite(c.Vault())
	})
}

// TestClientLatencyHistogram: a fixed-cost closed loop yields a
// constant latency equal to the round trip.
func TestClientLatencyHistogram(t *testing.T) {
	e := NewEngine(testConfig())
	pim := e.NewPIMCore(echoHandler(2))
	cl := NewClient(e, func(c *CPU, seq uint64) Message {
		return Message{To: pim.ID()}
	})
	m := &Meter{Engine: e, Clients: []*Client{cl}}
	m.Run(0, 48*Microsecond) // 200 ops at 240ns each
	if cl.Latency.N() < 100 {
		t.Fatalf("latency samples = %d", cl.Latency.N())
	}
	// Round trip = 90 + 60 + 90 = 240ns = 240000ps; histogram lower
	// bound of the containing sub-bucket is within 1/16.
	p50, _, p99 := cl.Latency.Percentiles()
	if p50 < 220_000 || p50 > 240_000 || p99 < 220_000 || p99 > 240_000 {
		t.Errorf("p50/p99 = %d/%d ps, want ≈ 240000", p50, p99)
	}
	if mean := cl.Latency.Mean(); mean != 240_000 {
		t.Errorf("mean latency = %v ps, want exactly 240000", mean)
	}
}

// TestTracerObservesProtocol: the counting tracer sees every send,
// delivery and served message.
func TestTracerObservesProtocol(t *testing.T) {
	e := NewEngine(testConfig())
	tr := NewCountingTracer()
	e.Attach(tr)
	pim := e.NewPIMCore(echoHandler(1))
	cl := NewClient(e, func(c *CPU, seq uint64) Message {
		return Message{To: pim.ID(), Kind: 7}
	})
	m := &Meter{Engine: e, Clients: []*Client{cl}}
	completed, _ := m.Run(0, 50*Microsecond)
	if completed == 0 {
		t.Fatal("nothing completed")
	}
	// Each op = request + response; requests are kind 7, replies kind 8.
	if tr.Sent < 2*completed || tr.Delivered < 2*completed {
		t.Errorf("sent/delivered = %d/%d, want ≥ %d", tr.Sent, tr.Delivered, 2*completed)
	}
	if tr.ByKind[7] < completed || tr.ByKind[8] < completed {
		t.Errorf("per-kind counts = %v", tr.ByKind)
	}
	if tr.Served < completed {
		t.Errorf("served = %d, want ≥ %d", tr.Served, completed)
	}
}

// TestWriterTracerFormats: text tracing produces one line per event
// with symbolic kinds when a namer is installed.
func TestWriterTracerFormats(t *testing.T) {
	var buf strings.Builder
	e := NewEngine(testConfig())
	e.Attach(&WriterTracer{W: &buf, KindName: func(k int) string { return "OP" }})
	pim := e.NewPIMCore(echoHandler(1))
	cpu := e.NewCPU(func(c *CPU, m Message) {})
	cpu.Exec(func(c *CPU) { c.Send(Message{To: pim.ID(), Kind: 1, Key: 42}) })
	e.Run()
	out := buf.String()
	for _, want := range []string{"send", "deliver", "served", "OP", "key=42"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestMessageGapThrottlesInjection: with a finite injection gap, one
// sender's burst of messages serializes at 1/gap.
func TestMessageGapThrottlesInjection(t *testing.T) {
	cfg := testConfig()
	cfg.MessageGap = 50 * Nanosecond
	e := NewEngine(cfg)
	var arrivals []Time
	sink := e.NewPIMCore(func(c *PIMCore, m Message) {
		arrivals = append(arrivals, e.Now())
	})
	cpu := e.NewCPU(nil)
	cpu.Exec(func(c *CPU) {
		for i := 0; i < 5; i++ {
			c.Send(Message{To: sink.ID(), Key: int64(i)})
		}
	})
	e.Run()
	if len(arrivals) != 5 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// First at 90ns, then spaced by the 50ns gap.
	for i, at := range arrivals {
		want := 90*Nanosecond + Time(i)*50*Nanosecond
		if at != want {
			t.Errorf("arrival %d at %v, want %v", i, at, want)
		}
	}
}

// TestMessageGapZeroIsUnlimited: the default model is unthrottled.
func TestMessageGapZeroIsUnlimited(t *testing.T) {
	e := NewEngine(testConfig())
	var arrivals []Time
	sink := e.NewPIMCore(func(c *PIMCore, m Message) {
		arrivals = append(arrivals, e.Now())
	})
	cpu := e.NewCPU(nil)
	cpu.Exec(func(c *CPU) {
		for i := 0; i < 3; i++ {
			c.Send(Message{To: sink.ID()})
		}
	})
	e.Run()
	for _, at := range arrivals {
		if at != 90*Nanosecond {
			t.Errorf("arrival at %v, want 90ns (no gap)", at)
		}
	}
}
