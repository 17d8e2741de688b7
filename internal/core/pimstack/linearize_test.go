package pimstack

import (
	"testing"

	"pimds/internal/linearize"
	"pimds/internal/op"
	"pimds/internal/sim"
)

// TestLinearizability records a real simulated stack history across
// overflow and revert handoffs and checks it against the sequential
// LIFO specification.
func TestLinearizability(t *testing.T) {
	e := sim.NewEngine(testConfig())
	s := New(e, 3, 8) // tiny threshold: overflow and revert traffic

	var history []linearize.Op
	record := func(client int) func(start, end sim.Time, kind int, v int64, ok bool) {
		return func(start, end sim.Time, kind int, v int64, ok bool) {
			o := linearize.Op{Start: int64(start), End: int64(end), Client: client, OK: ok}
			if kind == MsgPush {
				o.Kind = op.Push
				o.Input = v
			} else {
				o.Kind = op.Pop
				o.Output = v
			}
			history = append(history, o)
		}
	}
	var cls []*Client
	for i := 0; i < 2; i++ {
		pu := s.NewClient(Pusher)
		pu.OnDone = opDone(record(len(cls)))
		po := s.NewClient(Popper)
		po.OnDone = opDone(record(len(cls) + 1))
		cls = append(cls, pu, po)
	}
	startAll(cls)
	e.RunUntil(60 * sim.Microsecond)
	stopAndDrain(e, cls)

	if len(history) < 100 {
		t.Fatalf("only %d ops recorded", len(history))
	}
	if ok, err := linearize.Check(linearize.StackSpec{}, history); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Errorf("stack history of %d ops is not linearizable", len(history))
	}
}
