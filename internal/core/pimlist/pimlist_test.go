package pimlist

import (
	"math/rand"
	"testing"

	"pimds/internal/model"
	"pimds/internal/op"
	"pimds/internal/sim"
)

func testConfig() sim.Config {
	return sim.ConfigFromParams(model.DefaultParams())
}

// uniformOps returns a deterministic op generator: uniform keys in
// [0, space), mix of 25% contains / 37.5% add / 37.5% remove.
func uniformOps(seed int64, space int64) func(seq uint64) op.Op {
	rng := rand.New(rand.NewSource(seed))
	return func(uint64) op.Op {
		k := rng.Int63n(space)
		switch rng.Intn(8) {
		case 0, 1:
			return op.Op{Kind: op.Contains, Key: k}
		case 2, 3, 4:
			return op.Op{Kind: op.Add, Key: k}
		default:
			return op.Op{Kind: op.Remove, Key: k}
		}
	}
}

// TestSequentialEquivalence replays a single client's operations against
// a reference map: the PIM list must return exactly the sequential
// results.
func TestSequentialEquivalence(t *testing.T) {
	for _, combining := range []bool{false, true} {
		e := sim.NewEngine(testConfig())
		l := New(e, combining)

		var issued []op.Op
		gen := uniformOps(5, 64)
		next := func(seq uint64) op.Op {
			o := gen(seq)
			issued = append(issued, o)
			return o
		}
		cl := l.NewClient(e, next)
		cl.Start()
		e.RunUntil(2 * sim.Millisecond)

		// Replay against a map. The client is closed-loop, so ops
		// complete in issue order; the last issued op may still be in
		// flight.
		ref := make(map[int64]bool)
		completed := int(cl.Completed)
		if completed < 100 {
			t.Fatalf("only %d ops completed", completed)
		}
		for i := 0; i < completed; i++ {
			o := issued[i]
			switch o.Kind {
			case op.Add:
				ref[o.Key] = true
			case op.Remove:
				delete(ref, o.Key)
			}
		}
		if got, want := l.Len(), len(ref); got != want {
			t.Errorf("combining=%v: len = %d, want %d", combining, got, want)
		}
		for _, k := range l.Keys() {
			if !ref[k] {
				t.Errorf("combining=%v: unexpected key %d", combining, k)
			}
		}
	}
}

func TestPreloadAndKeys(t *testing.T) {
	e := sim.NewEngine(testConfig())
	l := New(e, true)
	l.Preload([]int64{5, 1, 3})
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	keys := l.Keys()
	want := []int64{1, 3, 5}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

// TestNaiveThroughputHandChecked pins the naive PIM list's cycle time:
// a Contains(maxKey) on an n-node list of keys 0..n-1 visits n nodes,
// so one closed-loop op takes Lmessage + n·Lpim + Lmessage.
func TestNaiveThroughputHandChecked(t *testing.T) {
	e := sim.NewEngine(testConfig())
	l := New(e, false)
	const n = 10
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	l.Preload(keys)
	cl := l.NewClient(e, func(uint64) op.Op {
		return op.Op{Kind: op.Contains, Key: n - 1}
	})
	m := &sim.Meter{Engine: e, Clients: []*sim.Client{cl}}
	// Cycle = 90 + 10×30 + 90 = 480ns.
	completed, _ := m.Run(0, 480*100*sim.Nanosecond)
	if completed != 100 {
		t.Errorf("completed = %d, want 100", completed)
	}
}

// TestCombiningBeatsNaive: with many clients, the combining list must
// deliver strictly higher throughput than the naive list — Table 1's
// row 5 vs row 3.
func TestCombiningBeatsNaive(t *testing.T) {
	run := func(combining bool) float64 {
		e := sim.NewEngine(testConfig())
		l := New(e, combining)
		var keys []int64
		for i := int64(0); i < 400; i += 2 {
			keys = append(keys, i)
		}
		l.Preload(keys)
		var clients []*sim.Client
		for i := 0; i < 8; i++ {
			clients = append(clients, l.NewClient(e, uniformOps(int64(100+i), 400)))
		}
		m := &sim.Meter{Engine: e, Clients: clients}
		_, ops := m.Run(200*sim.Microsecond, 2*sim.Millisecond)
		return ops
	}
	naive, combining := run(false), run(true)
	if combining <= naive*2 {
		t.Errorf("combining = %.0f ops/s, naive = %.0f ops/s; want ≥ 2× speedup at p=8", combining, naive)
	}
}

// TestBatchLimitOneActsNaive: BatchLimit=1 must serve one request per
// traversal even in combining mode.
func TestBatchLimitOneActsNaive(t *testing.T) {
	e := sim.NewEngine(testConfig())
	l := New(e, true)
	l.BatchLimit = 1
	var keys []int64
	for i := int64(0); i < 100; i++ {
		keys = append(keys, i)
	}
	l.Preload(keys)
	var clients []*sim.Client
	for i := 0; i < 4; i++ {
		clients = append(clients, l.NewClient(e, uniformOps(int64(i), 100)))
	}
	m := &sim.Meter{Engine: e, Clients: clients}
	m.Run(0, 500*sim.Microsecond)
	if l.Batches != l.Served {
		t.Errorf("batches = %d, served = %d; BatchLimit=1 must not batch", l.Batches, l.Served)
	}
}

// TestCombiningBatches: with unlimited batching and saturating clients,
// batches must be shared (served > batches).
func TestCombiningBatches(t *testing.T) {
	e := sim.NewEngine(testConfig())
	l := New(e, true)
	var keys []int64
	for i := int64(0); i < 500; i++ {
		keys = append(keys, i)
	}
	l.Preload(keys)
	var clients []*sim.Client
	for i := 0; i < 16; i++ {
		clients = append(clients, l.NewClient(e, uniformOps(int64(i), 500)))
	}
	m := &sim.Meter{Engine: e, Clients: clients}
	m.Run(0, 1*sim.Millisecond)
	if l.Served <= l.Batches {
		t.Errorf("served = %d, batches = %d; want batching", l.Served, l.Batches)
	}
}

// TestSimulationMatchesTable1 cross-checks the simulator against the
// analytical model for all five Table 1 rows at p = 8. The workload is
// the model's: uniform keys, balanced add/remove, steady-state size
// n ≈ keyspace/2. Tolerances are loose (35%) because the simulator
// executes real traversals over a random list while the model uses
// expectations, and the PIM/naive rows include message latency the
// closed-form drops.
func TestSimulationMatchesTable1(t *testing.T) {
	const keySpace = 400
	const nSteady = keySpace / 2
	const p = 8
	pr := model.DefaultParams()
	cfg := sim.ConfigFromParams(pr)
	lc := model.ListConfig{N: nSteady, P: p}

	// Balanced add/remove only (the model's workload).
	balanced := func(seed int64) func(uint64) op.Op {
		rng := rand.New(rand.NewSource(seed))
		return func(uint64) op.Op {
			k := rng.Int63n(keySpace)
			if rng.Intn(2) == 0 {
				return op.Op{Kind: op.Add, Key: k}
			}
			return op.Op{Kind: op.Remove, Key: k}
		}
	}
	preload := func() []int64 {
		var keys []int64
		for i := int64(0); i < keySpace; i += 2 {
			keys = append(keys, i)
		}
		return keys
	}

	check := func(name string, got, want float64, tol float64) {
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s: simulated %.3g ops/s vs model %.3g ops/s (tolerance %.0f%%)",
				name, got, want, tol*100)
		}
	}

	// Rows 3 and 5: PIM list without/with combining.
	for _, combining := range []bool{false, true} {
		e := sim.NewEngine(cfg)
		l := New(e, combining)
		l.Preload(preload())
		var clients []*sim.Client
		for i := 0; i < p; i++ {
			clients = append(clients, l.NewClient(e, balanced(int64(1000+i))))
		}
		m := &sim.Meter{Engine: e, Clients: clients}
		_, ops := m.Run(500*sim.Microsecond, 5*sim.Millisecond)
		if combining {
			check("PIM combining", ops, model.ListPIMCombining(pr, lc), 0.35)
		} else {
			check("PIM naive", ops, model.ListPIMNoCombining(pr, lc), 0.35)
		}
	}

	// Row 1: fine-grained locks.
	{
		e := sim.NewEngine(cfg)
		gens := make([]func(uint64) op.Op, p)
		for i := range gens {
			gens[i] = balanced(int64(2000 + i))
		}
		s := NewSimFineGrained(e, p, func(cpu int, seq uint64) op.Op {
			return gens[cpu](seq)
		})
		s.Preload(preload())
		_, ops := sim.Measure(e, func() {}, s.Ops(), 500*sim.Microsecond, 5*sim.Millisecond)
		check("fine-grained", ops, model.ListFineGrainedLocks(pr, lc), 0.35)
	}

	// Rows 2 and 4: FC without/with combining.
	for _, combining := range []bool{false, true} {
		e := sim.NewEngine(cfg)
		s := NewSimFCList(e, p, combining, balanced(3000))
		s.Preload(preload())
		_, ops := sim.Measure(e, func() {}, s.Ops(), 500*sim.Microsecond, 5*sim.Millisecond)
		if combining {
			check("FC combining", ops, model.ListFCCombining(pr, lc), 0.35)
		} else {
			check("FC naive", ops, model.ListFCNoCombining(pr, lc), 0.35)
		}
	}
}

// TestPaperOrderingClaims verifies the paper's qualitative Figure 2
// ordering in the simulator at p = 8, r1 = 3:
//
//	PIM+combining > fine-grained > 3×? … specifically:
//	PIM+combining > fine-grained > PIM naive > FC naive,
//	and FC+combining > FC naive.
func TestPaperOrderingClaims(t *testing.T) {
	const keySpace = 400
	const p = 8
	cfg := testConfig()
	balanced := func(seed int64) func(uint64) op.Op {
		rng := rand.New(rand.NewSource(seed))
		return func(uint64) op.Op {
			k := rng.Int63n(keySpace)
			if rng.Intn(2) == 0 {
				return op.Op{Kind: op.Add, Key: k}
			}
			return op.Op{Kind: op.Remove, Key: k}
		}
	}
	preload := func() []int64 {
		var keys []int64
		for i := int64(0); i < keySpace; i += 2 {
			keys = append(keys, i)
		}
		return keys
	}

	runPIM := func(combining bool) float64 {
		e := sim.NewEngine(cfg)
		l := New(e, combining)
		l.Preload(preload())
		var clients []*sim.Client
		for i := 0; i < p; i++ {
			clients = append(clients, l.NewClient(e, balanced(int64(10+i))))
		}
		m := &sim.Meter{Engine: e, Clients: clients}
		_, ops := m.Run(500*sim.Microsecond, 4*sim.Millisecond)
		return ops
	}
	runFGL := func() float64 {
		e := sim.NewEngine(cfg)
		gens := make([]func(uint64) op.Op, p)
		for i := range gens {
			gens[i] = balanced(int64(20 + i))
		}
		s := NewSimFineGrained(e, p, func(cpu int, seq uint64) op.Op {
			return gens[cpu](seq)
		})
		s.Preload(preload())
		_, ops := sim.Measure(e, func() {}, s.Ops(), 500*sim.Microsecond, 4*sim.Millisecond)
		return ops
	}
	runFC := func(combining bool) float64 {
		e := sim.NewEngine(cfg)
		s := NewSimFCList(e, p, combining, balanced(30))
		s.Preload(preload())
		_, ops := sim.Measure(e, func() {}, s.Ops(), 500*sim.Microsecond, 4*sim.Millisecond)
		return ops
	}

	pimC, pimN := runPIM(true), runPIM(false)
	fgl := runFGL()
	fcC, fcN := runFC(true), runFC(false)

	if !(pimC > fgl) {
		t.Errorf("PIM+combining (%.3g) should beat fine-grained locks (%.3g)", pimC, fgl)
	}
	if !(fgl > pimN) {
		t.Errorf("fine-grained locks (%.3g) should beat naive PIM at p=8 (%.3g)", fgl, pimN)
	}
	if !(pimN > fcN) {
		t.Errorf("naive PIM (%.3g) should beat naive FC (%.3g)", pimN, fcN)
	}
	if !(fcC > fcN) {
		t.Errorf("FC+combining (%.3g) should beat FC naive (%.3g)", fcC, fcN)
	}
	// The paper's 1.5× claim at r1 = 3.
	if pimC < 1.5*fgl*0.9 {
		t.Errorf("PIM+combining (%.3g) should be ≈1.5× fine-grained (%.3g)", pimC, fgl)
	}
}

func TestUnknownRequestKindPanics(t *testing.T) {
	e := sim.NewEngine(testConfig())
	l := New(e, false)
	cpu := e.NewCPU(func(c *sim.CPU, m sim.Message) {})
	cpu.Exec(func(c *sim.CPU) {
		c.Send(sim.Message{To: l.CoreID(), Kind: 999})
	})
	defer func() {
		if recover() == nil {
			t.Error("unknown request kind should panic")
		}
	}()
	e.Run()
}
