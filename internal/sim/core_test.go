package sim

import (
	"testing"
	"testing/quick"
)

// echoHandler replies to every request after n vault reads.
func echoHandler(reads int) PIMHandler {
	return func(c *PIMCore, m Message) {
		c.ReadN(reads)
		c.Send(Message{To: m.From, Kind: m.Kind + 1, Key: m.Key, OK: true})
		c.CountOp()
	}
}

func TestPIMCoreChargesVaultLatency(t *testing.T) {
	e := NewEngine(testConfig())
	pim := e.NewPIMCore(echoHandler(4))

	var gotAt Time = -1
	var resp Message
	cpu := e.NewCPU(func(c *CPU, m Message) {
		gotAt = e.Now()
		resp = m
	})
	cpu.Exec(func(c *CPU) {
		c.Send(Message{To: pim.ID(), Kind: 7, Key: 42})
	})
	e.Run()

	// Timeline: send at 0, arrival at Lmessage=90ns, 4 reads ×30ns =
	// 120ns, reply sent at 210ns, arrival 300ns.
	if want := 300 * Nanosecond; gotAt != want {
		t.Errorf("response at %v, want %v", gotAt, want)
	}
	if resp.Kind != 8 || resp.Key != 42 || !resp.OK {
		t.Errorf("bad response %+v", resp)
	}
	if pim.Vault().Reads != 4 || pim.Vault().Writes != 0 {
		t.Errorf("vault counters = %d reads / %d writes", pim.Vault().Reads, pim.Vault().Writes)
	}
	if pim.Stats.Messages != 1 || pim.Stats.Ops != 1 {
		t.Errorf("stats = %+v", pim.Stats)
	}
	if pim.Stats.Busy != 120*Nanosecond {
		t.Errorf("busy = %v, want 120ns", pim.Stats.Busy)
	}
}

func TestPIMCoreServesFIFOAndSerially(t *testing.T) {
	e := NewEngine(testConfig())
	var served []int64
	pim := e.NewPIMCore(func(c *PIMCore, m Message) {
		c.ReadN(2) // 60ns each request
		served = append(served, m.Key)
	})
	// Two CPUs send at the same instant; per-channel FIFO plus
	// deterministic tie-breaking orders them by send sequence.
	for i := int64(1); i <= 3; i++ {
		i := i
		cpu := e.NewCPU(nil)
		cpu.Exec(func(c *CPU) {
			c.Send(Message{To: pim.ID(), Key: i})
			c.Send(Message{To: pim.ID(), Key: i * 10})
		})
	}
	e.Run()
	if len(served) != 6 {
		t.Fatalf("served %d messages, want 6", len(served))
	}
	// Same-sender messages must preserve order.
	pos := map[int64]int{}
	for i, k := range served {
		pos[k] = i
	}
	for _, base := range []int64{1, 2, 3} {
		if pos[base] > pos[base*10] {
			t.Errorf("messages from sender %d reordered: %v", base, served)
		}
	}
	// Core is sequential: total busy time = 6 × 60ns.
	if pim.Stats.Busy != 360*Nanosecond {
		t.Errorf("busy = %v, want 360ns", pim.Stats.Busy)
	}
}

func TestPIMPipelining(t *testing.T) {
	// A core that replies with no memory work should be able to serve
	// back-to-back requests without waiting for reply delivery: with
	// one read per request (Lpim = 30ns), 10 queued requests finish
	// in 10×30ns of core time, not 10×(30+90)ns.
	e := NewEngine(testConfig())
	pim := e.NewPIMCore(echoHandler(1))
	cpu := e.NewCPU(func(c *CPU, m Message) {})
	cpu.Exec(func(c *CPU) {
		for i := 0; i < 10; i++ {
			c.Send(Message{To: pim.ID(), Key: int64(i)})
		}
	})
	e.Run()
	// All requests arrive at 90ns; the core finishes its vault work at
	// 90 + 10×30 = 390ns; the final reply lands at 390+90 = 480ns.
	if e.Now() != 480*Nanosecond {
		t.Errorf("simulation ended at %v, want 480ns (pipelined)", e.Now())
	}
}

func TestCPUAtomicSerialization(t *testing.T) {
	e := NewEngine(testConfig())
	line := &AtomicLine{}
	var done []Time
	for i := 0; i < 4; i++ {
		cpu := e.NewCPU(nil)
		cpu.Exec(func(c *CPU) {
			c.Atomic(line)
			done = append(done, c.Clock())
		})
	}
	e.Run()
	if len(done) != 4 {
		t.Fatalf("completed %d atomics, want 4", len(done))
	}
	// k concurrent atomics complete at k·Latomic (Section 3).
	for i, d := range done {
		want := Time(i+1) * 90 * Nanosecond
		if d != want {
			t.Errorf("atomic %d done at %v, want %v", i, d, want)
		}
	}
	if line.Ops != 4 {
		t.Errorf("line.Ops = %d, want 4", line.Ops)
	}
}

func TestCPUMemoryCosts(t *testing.T) {
	e := NewEngine(testConfig())
	var clk Time
	cpu := e.NewCPU(nil)
	cpu.Exec(func(c *CPU) {
		c.MemRead()   // 90
		c.MemWrite()  // 90
		c.LLCRead()   // 30
		c.LLCWrite()  // 30
		c.MemReadN(2) // 180
		c.Local()     // 0
		c.Compute(5 * Nanosecond)
		clk = c.Clock()
	})
	e.Run()
	if want := 425 * Nanosecond; clk != want {
		t.Errorf("clock = %v, want %v", clk, want)
	}
}

func TestChargingOutsideHandlerPanics(t *testing.T) {
	e := NewEngine(testConfig())
	pim := e.NewPIMCore(nil)
	cpu := e.NewCPU(nil)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s outside handler should panic", name)
			}
		}()
		fn()
	}
	mustPanic("PIMCore.Read", func() { pim.Read() })
	mustPanic("PIMCore.Send", func() { pim.Send(Message{To: cpu.ID()}) })
	mustPanic("CPU.MemRead", func() { cpu.MemRead() })
	mustPanic("CPU.Atomic", func() { cpu.Atomic(&AtomicLine{}) })
}

func TestMessageToUnknownCorePanics(t *testing.T) {
	e := NewEngine(testConfig())
	cpu := e.NewCPU(nil)
	cpu.Exec(func(c *CPU) {
		defer func() {
			if recover() == nil {
				t.Error("send to unknown core should panic")
			}
		}()
		c.Send(Message{To: CoreID(999)})
	})
	e.Run()
}

func TestSendToNoCorePanics(t *testing.T) {
	e := NewEngine(testConfig())
	cpu := e.NewCPU(nil)
	cpu.Exec(func(c *CPU) {
		defer func() {
			if recover() == nil {
				t.Error("send to NoCore should panic")
			}
		}()
		c.Send(Message{})
	})
	e.Run()
}

func TestVaultAccounting(t *testing.T) {
	v := &Vault{id: 3, owner: 7}
	if v.ID() != 3 || v.Owner() != 7 {
		t.Error("id/owner accessors broken")
	}
	v.RecordAlloc()
	v.RecordAlloc()
	v.RecordFree()
	if v.Allocs != 2 || v.Frees != 1 || v.LiveNodes != 1 {
		t.Errorf("alloc accounting: %+v", v)
	}
	v.Reads, v.Writes = 5, 7
	if v.Accesses() != 12 {
		t.Errorf("Accesses = %d, want 12", v.Accesses())
	}
}

// TestClosedLoopClientThroughput validates the Meter against a
// hand-computed closed loop: one client, one PIM core doing 2 reads per
// op. Cycle = Lmessage + 2·Lpim + Lmessage = 240ns per op.
func TestClosedLoopClientThroughput(t *testing.T) {
	e := NewEngine(testConfig())
	pim := e.NewPIMCore(echoHandler(2))
	cl := NewClient(e, func(c *CPU, seq uint64) Message {
		return Message{To: pim.ID(), Key: int64(seq)}
	})
	m := &Meter{Engine: e, Clients: []*Client{cl}}
	completed, ops := m.Run(24*Microsecond, 240*Microsecond)
	// 240µs window / 240ns per op = 1000 ops.
	if completed != 1000 {
		t.Errorf("completed = %d, want 1000", completed)
	}
	if want := 1000 / (240e-6); ops != want {
		t.Errorf("throughput = %v, want %v", ops, want)
	}
}

// TestEngineDeterminism: identical runs produce identical traces.
func TestEngineDeterminism(t *testing.T) {
	run := func() (Time, uint64, uint64) {
		e := NewEngine(testConfig())
		pims := make([]*PIMCore, 4)
		for i := range pims {
			pims[i] = e.NewPIMCore(echoHandler(i + 1))
		}
		clients := make([]*Client, 8)
		for i := range clients {
			i := i
			clients[i] = NewClient(e, func(c *CPU, seq uint64) Message {
				return Message{To: pims[(i+int(seq))%4].ID(), Key: int64(seq)}
			})
		}
		m := &Meter{Engine: e, Clients: clients}
		completed, _ := m.Run(10*Microsecond, 100*Microsecond)
		return e.Now(), e.Processed(), completed
	}
	t1, p1, c1 := run()
	t2, p2, c2 := run()
	if t1 != t2 || p1 != p2 || c1 != c2 {
		t.Errorf("nondeterministic runs: (%v,%d,%d) vs (%v,%d,%d)", t1, p1, c1, t2, p2, c2)
	}
}

// TestAtomicLineProperty: n serialized atomics always end exactly at
// n·Latomic when issued from time zero.
func TestAtomicLineProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%32) + 1
		line := &AtomicLine{}
		var last Time
		for i := 0; i < n; i++ {
			last = line.acquire(0, 90*Nanosecond)
		}
		return last == Time(n)*90*Nanosecond && line.Ops == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMessagesSentCounter(t *testing.T) {
	e := NewEngine(testConfig())
	pim := e.NewPIMCore(echoHandler(1))
	cl := NewClient(e, func(c *CPU, seq uint64) Message {
		return Message{To: pim.ID()}
	})
	m := &Meter{Engine: e, Clients: []*Client{cl}}
	completed, _ := m.Run(0, 10*Microsecond)
	if got := e.MessagesSent(cl.CPU().ID(), pim.ID()); got < completed {
		t.Errorf("MessagesSent = %d, want >= %d", got, completed)
	}
	if got := e.MessagesSent(pim.ID(), CoreID(12345)); got != 0 {
		t.Errorf("MessagesSent to unknown = %d, want 0", got)
	}
}
