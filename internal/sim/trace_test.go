package sim

import (
	"reflect"
	"strings"
	"testing"
)

// echoSim builds a one-core echo protocol with n closed-loop clients:
// kind 1 requests are served with one vault read and answered with kind
// 2 responses. It returns the engine and the clients.
func echoSim(t *testing.T, n int) (*Engine, []*Client) {
	t.Helper()
	e := NewEngine(testConfig())
	core := e.NewPIMCore(nil)
	core.SetHandler(func(c *PIMCore, m Message) {
		c.Read()
		c.Send(Message{To: m.From, Kind: 2, Key: m.Key, OK: true})
		c.CountOp()
	})
	var clients []*Client
	for i := 0; i < n; i++ {
		key := int64(i)
		cl := NewClient(e, func(c *CPU, seq uint64) Message {
			return Message{To: core.ID(), Kind: 1, Key: key}
		})
		clients = append(clients, cl)
	}
	return e, clients
}

func runEcho(e *Engine, clients []*Client, d Time) {
	for _, cl := range clients {
		cl.Start()
	}
	e.RunUntil(d)
}

func TestWriterTracerFormat(t *testing.T) {
	var sb strings.Builder
	e, clients := echoSim(t, 1)
	e.Attach(&WriterTracer{W: &sb, KindName: func(k int) string {
		if k == 1 {
			return "Echo"
		}
		return "Resp"
	}})
	runEcho(e, clients, 2*Microsecond)

	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("expected at least send/deliver/served lines, got:\n%s", out)
	}
	for _, want := range []string{"send", "deliver", "served"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q event:\n%s", want, out)
		}
	}
	// The symbolic kind namer must be used, and the default kind=%d
	// format must not leak through.
	if !strings.Contains(out, "Echo") || !strings.Contains(out, "Resp") {
		t.Errorf("trace output does not use KindName:\n%s", out)
	}
	if strings.Contains(out, "kind=") {
		t.Errorf("trace output fell back to numeric kinds:\n%s", out)
	}
	// Without a KindName the numeric form appears.
	sb.Reset()
	e2, clients2 := echoSim(t, 1)
	e2.Attach(&WriterTracer{W: &sb})
	runEcho(e2, clients2, 1*Microsecond)
	if !strings.Contains(sb.String(), "kind=1") {
		t.Errorf("default trace output should render kind=1:\n%s", sb.String())
	}
	// Every line carries a virtual timestamp and the key operand.
	for _, line := range lines {
		if !strings.Contains(line, "key=") {
			t.Errorf("trace line missing key operand: %q", line)
		}
	}
}

func TestCountingTracerTallies(t *testing.T) {
	e, clients := echoSim(t, 3)
	ct := NewCountingTracer()
	e.Attach(ct)
	runEcho(e, clients, 5*Microsecond)

	if ct.Sent == 0 || ct.Delivered == 0 || ct.Served == 0 {
		t.Fatalf("counting tracer saw nothing: %+v", ct)
	}
	// Every sent message is eventually delivered; the engine only
	// schedules deliveries, so by quiescence at the horizon the counts
	// can differ by at most the in-flight messages. Drain them.
	e.RunFor(Millisecond) // no new requests: clients are closed-loop... keep running
	if ct.Sent < ct.Served {
		t.Errorf("served (%d) cannot exceed sent (%d)", ct.Served, ct.Sent)
	}
	if got := ct.ByKind[1] + ct.ByKind[2]; got != ct.Sent {
		t.Errorf("ByKind sums to %d, want %d", got, ct.Sent)
	}
	if ct.ByKind[1] == 0 || ct.ByKind[2] == 0 {
		t.Errorf("both kinds should appear: %v", ct.ByKind)
	}
}

// TestNilTracerFastPath checks that an engine without a tracer runs the
// identical simulation (same virtual time, ops and message counts) —
// the nil check is the entire cost of the disabled path.
func TestNilTracerFastPath(t *testing.T) {
	run := func(traced bool) (Time, uint64, uint64) {
		e, clients := echoSim(t, 4)
		var ct *CountingTracer
		if traced {
			ct = NewCountingTracer()
			e.Attach(ct)
		}
		runEcho(e, clients, 3*Microsecond)
		var ops uint64
		for _, cl := range clients {
			ops += cl.Completed
		}
		return e.Now(), ops, e.Processed()
	}
	nowA, opsA, procA := run(false)
	nowB, opsB, procB := run(true)
	if nowA != nowB || opsA != opsB || procA != procB {
		t.Errorf("tracer perturbed the simulation: (%v,%d,%d) vs (%v,%d,%d)",
			nowA, opsA, procA, nowB, opsB, procB)
	}
}

// recorder logs every event it observes, tagged with its name, into a
// log it shares with other recorders.
type recorder struct {
	name string
	log  *[]recorded
}

type recorded struct {
	by string
	ev Event
}

func (r recorder) Observe(ev Event) { *r.log = append(*r.log, recorded{r.name, ev}) }

// TestMultiTracer attaches two counting tracers to one engine: both
// must see the echo simulation's traffic, and tally it alike.
func TestMultiTracer(t *testing.T) {
	e, clients := echoSim(t, 2)
	a, b := NewCountingTracer(), NewCountingTracer()
	e.Attach(a)
	e.Attach(b)
	runEcho(e, clients, 2*Microsecond)
	if a.Sent == 0 {
		t.Fatal("first tracer saw nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("tracers disagree: %+v vs %+v", a, b)
	}
}

// TestMultiTracerFanOutOrdering attaches two recorders to one engine.
// Every event must reach both, in attach order, as the same value, so
// the shared log alternates a, b with equal pairs; and each simulation
// must report every event kind (and cost kind) it is listed with.
func TestMultiTracerFanOutOrdering(t *testing.T) {
	for _, tc := range []struct {
		name string
		sim  func(t *testing.T) (*Engine, func())
		want []Event // only Kind, and Cost of a charge, are compared
	}{
		{"echo", func(t *testing.T) (*Engine, func()) {
			e, clients := echoSim(t, 2)
			return e, func() { runEcho(e, clients, 2*Microsecond) }
		}, []Event{{Kind: EventSend}, {Kind: EventDeliver}, {Kind: EventConsume},
			{Kind: EventCharge, Cost: CostMemory}, {Kind: EventHandlerEnd},
			{Kind: EventOpStart}, {Kind: EventOpEnd}}},
		{"combining", func(t *testing.T) (*Engine, func()) {
			e := NewEngine(testConfig())
			pim := e.NewPIMCore(nil)
			pim.ServiceDelay = 200 * Nanosecond
			pim.SetHandler(func(c *PIMCore, m Message) {
				for _, r := range c.TakeQueued([]Message{m}, -1) {
					c.Read()
					c.Send(Message{To: r.From, Kind: 2, Key: r.Key})
				}
			})
			var clients []*Client
			for i := 0; i < 4; i++ {
				clients = append(clients, NewClient(e, func(*CPU, uint64) Message {
					return Message{To: pim.ID(), Kind: 1}
				}))
			}
			return e, func() { runEcho(e, clients, 3*Microsecond) }
		}, []Event{{Kind: EventConsume}, {Kind: EventCombine}}},
		{"atomic wait", func(t *testing.T) (*Engine, func()) {
			e := NewEngine(testConfig())
			var line AtomicLine
			for i := 0; i < 2; i++ {
				Loop(e.NewCPU(nil), func(c *CPU) { c.Atomic(&line) })
			}
			return e, func() { e.RunUntil(Microsecond) }
		}, []Event{{Kind: EventCharge, Cost: CostAtomic},
			{Kind: EventCharge, Cost: CostAtomicWait}, {Kind: EventHandlerEnd}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log []recorded
			e, run := tc.sim(t)
			e.Attach(recorder{"a", &log})
			e.Attach(recorder{"b", &log})
			run()

			if len(log) == 0 || len(log)%2 != 0 {
				t.Fatalf("log length %d: some event did not reach both recorders", len(log))
			}
			seen := map[Event]bool{}
			for i := 0; i < len(log); i += 2 {
				first, second := log[i], log[i+1]
				if first.by != "a" || second.by != "b" {
					t.Fatalf("fan-out out of order at %d: %s then %s", i, first.by, second.by)
				}
				if first.ev != second.ev {
					t.Fatalf("recorders saw different events at %d: %+v vs %+v", i, first.ev, second.ev)
				}
				key := Event{Kind: first.ev.Kind}
				if key.Kind == EventCharge {
					key.Cost = first.ev.Cost
				}
				seen[key] = true
			}
			for _, w := range tc.want {
				if !seen[w] {
					t.Errorf("no event of kind %d (cost %d) reported", w.Kind, w.Cost)
				}
			}
		})
	}
}
