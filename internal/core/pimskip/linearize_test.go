package pimskip

import (
	"testing"

	"pimds/internal/linearize"
	"pimds/internal/op"
	"pimds/internal/sim"
)

// TestLinearizability records a simulated set history — including a
// node migration with mid-flight forwarding and directory updates —
// and checks it against the sequential set specification. This is the
// property the paper emphasizes is hard ("operations … have to
// correctly synchronize with one another in all possible execution
// scenarios").
func TestLinearizability(t *testing.T) {
	const space = 64 // small space: plenty of key collisions
	e := sim.NewEngine(testConfig())
	s := New(e, space, 2, 3)
	s.MigBatch = 2
	s.Preload([]int64{4, 8, 12, 16, 20, 24, 28})

	var history []linearize.Op
	var cls []*Client
	for i := 0; i < 4; i++ {
		client := i + 1
		cl := s.NewClient(mixedOps(int64(30+i), space))
		onOp(cl, func(start, end sim.Time, o op.Op, ok bool) {
			history = append(history, linearize.Op{
				Start: int64(start), End: int64(end), Client: client,
				Kind: o.Kind, Input: o.Key, OK: ok,
			})
		})
		cl.Start()
		cls = append(cls, cl)
	}
	// Kick a migration mid-run so forwards and rejections are part of
	// the recorded history.
	e.RunUntil(10 * sim.Microsecond)
	s.TriggerMigration(0, 0, 32, 1)
	e.RunUntil(80 * sim.Microsecond)
	for _, cl := range cls {
		cl.Stop()
	}
	e.Run()

	if s.parts[0].mig != nil {
		t.Fatal("migration did not complete")
	}
	if len(history) < 150 {
		t.Fatalf("only %d ops recorded", len(history))
	}
	// The initial preload is prior state: seed the spec by prepending
	// sequential successful adds before time zero.
	var seeded []linearize.Op
	for i, k := range []int64{4, 8, 12, 16, 20, 24, 28} {
		seeded = append(seeded, linearize.Op{
			Start: int64(-100 + 2*i), End: int64(-99 + 2*i),
			Client: 99, Kind: op.Add, Input: k, OK: true,
		})
	}
	seeded = append(seeded, history...)
	if ok, err := linearize.Check(linearize.SetSpec{}, seeded); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Errorf("set history of %d ops (with migration) is not linearizable", len(history))
	}
}
