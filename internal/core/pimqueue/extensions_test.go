package pimqueue

import (
	"testing"

	"pimds/internal/sim"
)

// TestFatNodesCorrectness: with enqueue combining on, FIFO semantics
// and exactly-once delivery must be unchanged.
func TestFatNodesCorrectness(t *testing.T) {
	e := sim.NewEngine(testConfig())
	q := New(e, 3, 64)
	q.FatNodes = true
	var enqs []*Client
	for i := 0; i < 4; i++ {
		enqs = append(enqs, q.NewClient(Enqueuer))
	}
	deq := q.NewClient(Dequeuer)
	var got []int64
	deq.OnDone = dequeued(func(v int64) { got = append(got, v) })
	startAll(append(append([]*Client{}, enqs...), deq))
	e.RunUntil(1 * sim.Millisecond)
	for _, cl := range append(enqs, deq) {
		cl.Stop()
	}
	e.Run()

	seen := make(map[int64]int)
	for _, v := range got {
		seen[v]++
	}
	for _, v := range q.Drain() {
		seen[v]++
	}
	var total uint64
	for ci, cl := range enqs {
		total += cl.Enqueued
		for s := int64(0); s < int64(cl.Enqueued); s++ {
			if seen[int64(ci)<<32|s] != 1 {
				t.Fatalf("value (client %d, seq %d) seen %d times", ci, s, seen[int64(ci)<<32|s])
			}
		}
	}
	if uint64(len(seen)) != total {
		t.Fatalf("%d distinct values for %d enqueues", len(seen), total)
	}
	// Per-producer order at the single dequeuer.
	last := map[int64]int64{}
	for _, v := range got {
		p, s := v>>32, v&0xffffffff
		if prev, ok := last[p]; ok && s < prev {
			t.Fatalf("producer %d out of order: %d after %d", p, s, prev)
		}
		last[p] = s
	}
}

// TestFatNodesReduceWrites: combining must cut vault writes per enqueue
// when many enqueues are buffered.
func TestFatNodesReduceWrites(t *testing.T) {
	run := func(fat bool) float64 {
		e := sim.NewEngine(testConfig())
		q := New(e, 2, 1<<30)
		q.FatNodes = fat
		// Many enqueuers on one core ⇒ deep buffer ⇒ big fat nodes.
		var cls []*Client
		for i := 0; i < 12; i++ {
			cls = append(cls, q.NewClient(Enqueuer))
		}
		startAll(cls)
		e.RunUntil(500 * sim.Microsecond)
		qc := q.cores[0]
		return float64(qc.core.Vault().Writes) / float64(qc.Enqueues)
	}
	plain, fat := run(false), run(true)
	if plain < 0.99 {
		t.Errorf("plain writes/enq = %.2f, want ≈ 1", plain)
	}
	if fat > plain/2 {
		t.Errorf("fat writes/enq = %.2f, want well below plain %.2f", fat, plain)
	}
}

// TestFatNodesThroughput: cheaper enqueues mean the enqueue core
// sustains more ops per second.
func TestFatNodesThroughput(t *testing.T) {
	run := func(fat bool) float64 {
		e := sim.NewEngine(testConfig())
		q := New(e, 2, 1<<30)
		q.FatNodes = fat
		var cls []*Client
		var cpus []*sim.CPU
		for i := 0; i < 12; i++ {
			cl := q.NewClient(Enqueuer)
			cls = append(cls, cl)
			cpus = append(cpus, cl.CPU())
		}
		start := func() { startAll(cls) }
		_, ops := sim.Measure(e, start, sim.OpsOfCPUs(cpus), 50*sim.Microsecond, 500*sim.Microsecond)
		return ops
	}
	plain, fat := run(false), run(true)
	if fat <= plain {
		t.Errorf("fat-node throughput %.4g should beat plain %.4g", fat, plain)
	}
}

// TestCPUDecidedSplit: footnote-4 mode — splits happen at the client's
// cadence even with an infinite core-side threshold.
func TestCPUDecidedSplit(t *testing.T) {
	e := sim.NewEngine(testConfig())
	q := New(e, 4, 1<<30) // core itself would never split
	enq := q.NewClient(Enqueuer)
	enq.SplitEvery = 50
	enq.Start()
	e.RunUntil(300 * sim.Microsecond)
	enq.Stop()
	e.Run()

	var handoffs uint64
	for _, qc := range q.Cores() {
		handoffs += qc.Handoffs
	}
	if handoffs == 0 {
		t.Fatal("no handoffs despite SplitEvery=50")
	}
	// FIFO must survive the CPU-driven splits.
	vals := q.Drain()
	if uint64(len(vals)) != enq.Enqueued {
		t.Fatalf("drained %d, enqueued %d", len(vals), enq.Enqueued)
	}
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("FIFO violated at %d: %d", i, v)
		}
	}
	// Roughly one handoff per SplitEvery enqueues (notifications can
	// lag, so allow slack).
	want := enq.Enqueued / 50
	if handoffs < want/2 || handoffs > want*2 {
		t.Errorf("handoffs = %d for %d enqueues, want ≈ %d", handoffs, enq.Enqueued, want)
	}
}

// TestSplitMessageToNonOwnerIsIgnored: a stray MsgSplit must not panic
// or split anything at a non-owner.
func TestSplitMessageToNonOwnerIsIgnored(t *testing.T) {
	e := sim.NewEngine(testConfig())
	q := New(e, 2, 1<<30)
	cpu := e.NewCPU(func(c *sim.CPU, m sim.Message) {})
	cpu.Exec(func(c *sim.CPU) {
		c.Send(sim.Message{To: q.cores[1].core.ID(), Kind: MsgSplit})
	})
	e.Run()
	if q.cores[1].Handoffs != 0 {
		t.Error("non-owner split should be a no-op")
	}
}

// TestSlowCPUOnlyHurtsBlockingScheme injects one client with delayed
// acknowledgements: the blocking notification scheme must lose
// substantial throughput while the non-blocking scheme is unaffected —
// the §5.1 argument for the non-blocking design.
func TestSlowCPUOnlyHurtsBlockingScheme(t *testing.T) {
	run := func(blocking bool, ackDelay sim.Time) float64 {
		e := sim.NewEngine(testConfig())
		q := New(e, 4, 64)
		q.BlockingNotify = blocking
		var enqs, deqs []*Client
		var cpus []*sim.CPU
		for i := 0; i < 6; i++ {
			enq := q.NewClient(Enqueuer)
			deq := q.NewClient(Dequeuer)
			enqs = append(enqs, enq)
			deqs = append(deqs, deq)
			cpus = append(cpus, enq.CPU(), deq.CPU())
		}
		enqs[0].AckDelay = ackDelay
		start := func() {
			startAll(enqs)
			e.After(100*sim.Microsecond, func() { startAll(deqs) })
		}
		_, ops := sim.Measure(e, start, sim.OpsOfCPUs(cpus), 200*sim.Microsecond, 1*sim.Millisecond)
		return ops
	}

	nbFast, nbSlow := run(false, 0), run(false, 10*sim.Microsecond)
	blFast, blSlow := run(true, 0), run(true, 10*sim.Microsecond)

	if nbSlow < nbFast*0.95 {
		t.Errorf("non-blocking scheme degraded by a slow CPU: %.4g vs %.4g", nbSlow, nbFast)
	}
	if blSlow > blFast/2 {
		t.Errorf("blocking scheme should collapse under a slow CPU: %.4g vs %.4g", blSlow, blFast)
	}
}
