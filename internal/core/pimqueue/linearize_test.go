package pimqueue

import (
	"testing"

	"pimds/internal/linearize"
	"pimds/internal/op"
	"pimds/internal/sim"
)

// TestLinearizability records a real simulated history — concurrent
// enqueuers and dequeuers across segment handoffs, rejections and
// rediscovery — and verifies it against the sequential FIFO
// specification with the Wing & Gong checker.
func TestLinearizability(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		e := sim.NewEngine(testConfig())
		q := New(e, 3, 8) // tiny threshold: lots of handoffs
		q.BlockingNotify = blocking

		var history []linearize.Op
		record := func(client int) func(start, end sim.Time, k int, v int64, ok bool) {
			return func(start, end sim.Time, k int, v int64, ok bool) {
				action := op.Enqueue
				if k == MsgDeq {
					action = op.Dequeue
				}
				o := linearize.Op{Start: int64(start), End: int64(end), Client: client, Kind: action, OK: ok}
				if action == op.Enqueue {
					o.Input = v
				} else {
					o.Output = v
				}
				history = append(history, o)
			}
		}
		var cls []*Client
		for i := 0; i < 2; i++ {
			enq := q.NewClient(Enqueuer)
			enq.OnDone = opDone(record(len(cls)))
			deq := q.NewClient(Dequeuer)
			deq.OnDone = opDone(record(len(cls) + 1))
			cls = append(cls, enq, deq)
		}
		startAll(cls)
		e.RunUntil(60 * sim.Microsecond)
		for _, cl := range cls {
			cl.Stop()
		}
		e.Run()

		if len(history) < 100 {
			t.Fatalf("blocking=%v: only %d ops recorded", blocking, len(history))
		}
		if ok, err := linearize.Check(linearize.QueueSpec{}, history); err != nil {
			t.Fatal(err)
		} else if !ok {
			t.Errorf("blocking=%v: history of %d ops is not linearizable", blocking, len(history))
		}
	}
}

// TestLinearizabilityCheckerCatchesCorruption: mutate one recorded
// response and the checker must reject — guarding against a vacuously
// passing checker.
func TestLinearizabilityCheckerCatchesCorruption(t *testing.T) {
	e := sim.NewEngine(testConfig())
	q := New(e, 2, 16)
	var history []linearize.Op
	enq := q.NewClient(Enqueuer)
	enq.OnDone = opDone(func(start, end sim.Time, k int, v int64, ok bool) {
		history = append(history, linearize.Op{
			Start: int64(start), End: int64(end), Client: 1,
			Kind: op.Enqueue, Input: v, OK: ok,
		})
	})
	deq := q.NewClient(Dequeuer)
	deq.OnDone = opDone(func(start, end sim.Time, k int, v int64, ok bool) {
		history = append(history, linearize.Op{
			Start: int64(start), End: int64(end), Client: 2,
			Kind: op.Dequeue, Output: v, OK: ok,
		})
	})
	enq.Start()
	deq.Start()
	e.RunUntil(40 * sim.Microsecond)
	enq.Stop()
	deq.Stop()
	e.Run()

	if ok, err := linearize.Check(linearize.QueueSpec{}, history); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Fatal("clean history should linearize")
	}
	// Corrupt: swap the outputs of the two last successful dequeues.
	var idx []int
	for i, o := range history {
		if o.Kind == op.Dequeue && o.OK {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		t.Skip("not enough dequeues to corrupt")
	}
	a, b := idx[len(idx)-2], idx[len(idx)-1]
	if history[a].Output == history[b].Output {
		t.Fatal("test needs distinct outputs")
	}
	history[a].Output, history[b].Output = history[b].Output, history[a].Output
	if ok, err := linearize.Check(linearize.QueueSpec{}, history); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("corrupted history should not linearize")
	}
}
