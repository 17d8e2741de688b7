package pimstack

import (
	"testing"

	"pimds/internal/model"
	"pimds/internal/obs"
	"pimds/internal/sim"
)

func testConfig() sim.Config {
	return sim.ConfigFromParams(model.DefaultParams())
}

// opDone adapts fn to a client's completion hook: kind is the request
// kind (MsgPush/MsgPop), v the pushed or popped value, ok false for an
// empty pop.
func opDone(fn func(start, end sim.Time, kind int, v int64, ok bool)) func(req, resp sim.Message, start, end sim.Time) {
	return func(req, resp sim.Message, start, end sim.Time) {
		if req.Kind == MsgPop {
			fn(start, end, MsgPop, resp.Key, resp.Kind == MsgPopOK)
			return
		}
		fn(start, end, req.Kind, req.Key, true)
	}
}

// popped adapts fn to a client's completion hook that sees every popped
// value.
func popped(fn func(v int64)) func(req, resp sim.Message, start, end sim.Time) {
	return opDone(func(_, _ sim.Time, kind int, v int64, ok bool) {
		if kind == MsgPop && ok {
			fn(v)
		}
	})
}

func startAll(cls []*Client) {
	for _, cl := range cls {
		cl.Start()
	}
}

func stopAndDrain(e *sim.Engine, cls []*Client) {
	for _, cl := range cls {
		cl.Stop()
	}
	e.Run()
}

// TestSingleClientLIFO: alternating push/pop on one core returns each
// pushed value immediately (classic stack behaviour).
func TestSingleClientLIFO(t *testing.T) {
	e := sim.NewEngine(testConfig())
	s := New(e, 1, 1<<30)
	cl := s.NewClient(Mixed)
	var got []int64
	cl.OnDone = popped(func(v int64) { got = append(got, v) })
	cl.Start()
	e.RunUntil(100 * sim.Microsecond)
	stopAndDrain(e, []*Client{cl})

	if len(got) < 50 {
		t.Fatalf("only %d pops", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("pop #%d = %d, want %d", i, v, i)
		}
	}
	if s.Len() > 1 {
		t.Errorf("stack depth %d at quiescence", s.Len())
	}
}

// TestLIFOAcrossSegments: push a run, then pop everything through one
// popper: values must come back in exact reverse order across segment
// boundaries (overflows up, reverts down).
func TestLIFOAcrossSegments(t *testing.T) {
	e := sim.NewEngine(testConfig())
	s := New(e, 4, 16)
	pusher := s.NewClient(Pusher)
	pusher.Start()
	e.RunUntil(100 * sim.Microsecond)
	pusher.Stop()
	e.Run()

	var overflows uint64
	for _, sc := range s.Cores() {
		overflows += sc.Overflows
	}
	if overflows == 0 {
		t.Fatal("no overflow handoffs with threshold 16")
	}
	pushed := int64(pusher.Pushed)
	if int64(s.Len()) != pushed {
		t.Fatalf("len = %d, pushed = %d", s.Len(), pushed)
	}

	popper := s.NewClient(Popper)
	var got []int64
	popper.OnDone = popped(func(v int64) { got = append(got, v) })
	popper.Start()
	e.RunUntil(5 * sim.Millisecond)
	popper.Stop()
	e.Run()

	if int64(len(got)) != pushed {
		t.Fatalf("popped %d, want %d", len(got), pushed)
	}
	for i, v := range got {
		if v != pushed-1-int64(i) {
			t.Fatalf("pop #%d = %d, want %d (LIFO)", i, v, pushed-1-int64(i))
		}
	}
	var reverts uint64
	for _, sc := range s.Cores() {
		reverts += sc.Reverts
	}
	if reverts == 0 {
		t.Error("no revert handoffs while draining")
	}
	if s.TopOwner() != 0 {
		t.Errorf("top owner = %d after full drain, want 0 (bottom)", s.TopOwner())
	}
}

// TestDrainMatchesPops: Drain at quiescence reports exactly the resident
// values, top-first.
func TestDrainMatchesPops(t *testing.T) {
	e := sim.NewEngine(testConfig())
	s := New(e, 3, 8)
	pusher := s.NewClient(Pusher)
	pusher.Start()
	e.RunUntil(30 * sim.Microsecond)
	pusher.Stop()
	e.Run()

	vals := s.Drain()
	if uint64(len(vals)) != pusher.Pushed {
		t.Fatalf("drained %d, pushed %d", len(vals), pusher.Pushed)
	}
	for i, v := range vals {
		want := int64(pusher.Pushed) - 1 - int64(i)
		if v != want {
			t.Fatalf("drain[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestConservationUnderConcurrency: every acknowledged pushed value is
// popped at most once, and popped ∪ resident = pushed exactly.
func TestConservationUnderConcurrency(t *testing.T) {
	e := sim.NewEngine(testConfig())
	s := New(e, 4, 32)
	var cls []*Client
	seen := map[int64]int{}
	for i := 0; i < 3; i++ {
		cls = append(cls, s.NewClient(Pusher))
	}
	for i := 0; i < 3; i++ {
		cl := s.NewClient(Popper)
		cl.OnDone = popped(func(v int64) { seen[v]++ })
		cls = append(cls, cl)
	}
	startAll(cls)
	e.RunUntil(2 * sim.Millisecond)
	stopAndDrain(e, cls)

	for _, v := range s.Drain() {
		seen[v]++
	}
	var pushed uint64
	for _, cl := range cls[:3] {
		pushed += cl.Pushed
		for q := int64(0); q < int64(cl.Pushed); q++ {
			v := int64(cl.idx)<<32 | q
			if seen[v] != 1 {
				t.Fatalf("value (client %d, seq %d) seen %d times", cl.idx, q, seen[v])
			}
		}
	}
	if uint64(len(seen)) != pushed {
		t.Fatalf("%d distinct values for %d pushes", len(seen), pushed)
	}
}

// TestEmptyPop: poppers on an empty stack see MsgPopEmpty.
func TestEmptyPop(t *testing.T) {
	e := sim.NewEngine(testConfig())
	s := New(e, 2, 8)
	cl := s.NewClient(Popper)
	cl.Start()
	e.RunUntil(10 * sim.Microsecond)
	if cl.Empty == 0 || cl.Popped != 0 {
		t.Errorf("empty=%d popped=%d", cl.Empty, cl.Popped)
	}
}

// TestEmptyPopIsTimed: an empty pop is a completed operation, so it is
// recorded in the client's latency histogram and the per-kind latency
// metric like any other.
func TestEmptyPopIsTimed(t *testing.T) {
	e := sim.NewEngine(testConfig())
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	e.SetKindNamer(KindNames.Name)
	s := New(e, 2, 8)
	cl := s.NewClient(Popper)
	cl.Start()
	e.RunUntil(10 * sim.Microsecond)
	if cl.Empty == 0 {
		t.Fatal("popper on empty stack never saw MsgPopEmpty")
	}
	if got := cl.Latency.N(); got != cl.Empty {
		t.Errorf("latency samples = %d, want %d (one per empty pop)", got, cl.Empty)
	}
	if got := reg.Histogram("latency/Pop").N(); got != cl.Empty {
		t.Errorf("latency/Pop samples = %d, want %d", got, cl.Empty)
	}
}

// TestThroughputMatchesModel: the pipelined PIM stack sustains ≈
// 1/Lpim combined ops — beating both CPU-side stack bounds, mirroring
// §5.2.
func TestThroughputMatchesModel(t *testing.T) {
	e := sim.NewEngine(testConfig())
	s := New(e, 2, 1<<30)
	var cls []*Client
	var cpus []*sim.CPU
	for i := 0; i < 6; i++ {
		p := s.NewClient(Pusher)
		q := s.NewClient(Popper)
		cls = append(cls, p, q)
		cpus = append(cpus, p.CPU(), q.CPU())
	}
	start := func() { startAll(cls) }
	_, ops := sim.Measure(e, start, sim.OpsOfCPUs(cpus), 50*sim.Microsecond, 500*sim.Microsecond)
	// 1/Lpim = 33.3M; empty-pop fast-paths can push it slightly higher.
	if want := 1e9 / 30; ops < want*0.9 || ops > want*1.3 {
		t.Errorf("throughput = %.4g, want ≈ %.4g (1/Lpim)", ops, want)
	}
	// And it must beat the modeled Treiber (1/Latomic) and FC stack
	// (1/(2·Lllc)) bounds.
	if ops <= 1e9/90 || ops <= 1e9/60 {
		t.Errorf("PIM stack (%.4g) should beat 1/Latomic and 1/(2Lllc)", ops)
	}
}

// TestPipeliningAblation mirrors the queue's.
func TestPipeliningAblation(t *testing.T) {
	run := func(pipelining bool) float64 {
		e := sim.NewEngine(testConfig())
		s := New(e, 2, 1<<30)
		s.Pipelining = pipelining
		var cls []*Client
		var cpus []*sim.CPU
		for i := 0; i < 12; i++ {
			cl := s.NewClient(Pusher)
			cls = append(cls, cl)
			cpus = append(cpus, cl.CPU())
		}
		start := func() { startAll(cls) }
		_, ops := sim.Measure(e, start, sim.OpsOfCPUs(cpus), 50*sim.Microsecond, 500*sim.Microsecond)
		return ops
	}
	on, off := run(true), run(false)
	if ratio := on / off; ratio < 3.5 || ratio > 4.5 {
		t.Errorf("pipelining speedup = %.2f, want ≈ 4 (1 + Lmessage/Lpim)", ratio)
	}
}

// TestDeterminism: identical runs, identical results.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, sim.Time) {
		e := sim.NewEngine(testConfig())
		s := New(e, 3, 16)
		var cls []*Client
		for i := 0; i < 2; i++ {
			cls = append(cls, s.NewClient(Pusher), s.NewClient(Popper))
		}
		startAll(cls)
		e.RunUntil(500 * sim.Microsecond)
		var pu, po uint64
		for _, cl := range cls {
			pu += cl.Pushed
			po += cl.Popped
		}
		return pu, po, e.Now()
	}
	a1, b1, t1 := run()
	a2, b2, t2 := run()
	if a1 != a2 || b1 != b2 || t1 != t2 {
		t.Errorf("nondeterministic: (%d,%d,%v) vs (%d,%d,%v)", a1, b1, t1, a2, b2, t2)
	}
}

func TestBadConstructionPanics(t *testing.T) {
	e := sim.NewEngine(testConfig())
	for _, c := range []struct{ n, th int }{{0, 5}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", c.n, c.th)
				}
			}()
			New(e, c.n, c.th)
		}()
	}
}
