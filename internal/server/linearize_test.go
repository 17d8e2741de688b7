package server_test

import (
	"sync"
	"testing"

	"pimds/internal/linearize"
	"pimds/internal/op"
	"pimds/internal/server"
)

// runLoggedHistory drives nClients closed-loop clients (one op
// outstanding each, so the op log's per-connection program-order
// assumption holds) and returns the recorded history at quiescence.
func runLoggedHistory(t *testing.T, cfg server.Config, nClients, opsPerClient int, opFor func(cl, i int) op.Op) []linearize.Op {
	t.Helper()
	log := server.NewOpLog()
	cfg.Log = log
	srv, addr := startServer(t, cfg)

	var wg sync.WaitGroup
	for cl := 0; cl < nClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dialRaw(t, addr)
			defer c.nc.Close()
			for i := 0; i < opsPerClient; i++ {
				o := opFor(cl, i)
				o.ID = uint64(i)
				c.send(t, o)
				if res := c.recv(t, 1); len(res) != 1 {
					t.Errorf("client %d op %d: %d results", cl, i, len(res))
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	srv.Shutdown()
	return log.Ops()
}

// dialRaw is dial without t.Cleanup (clients close themselves so the
// history is complete before Shutdown).
func dialRaw(t *testing.T, addr string) *client {
	t.Helper()
	c := dial(t, addr)
	return c
}

func TestServerHistoryLinearizableSet(t *testing.T) {
	const nClients, perClient = 4, 40
	ops := runLoggedHistory(t,
		server.Config{Structure: server.StructSkip, Shards: 2, KeySpace: 64},
		nClients, perClient,
		func(cl, i int) op.Op {
			k := int64((cl*13 + i*5) % 64)
			switch (cl + i) % 3 {
			case 0:
				return op.Op{Kind: op.Add, Key: k}
			case 1:
				return op.Op{Kind: op.Remove, Key: k}
			}
			return op.Op{Kind: op.Contains, Key: k}
		})
	if len(ops) != nClients*perClient {
		t.Fatalf("history has %d ops, want %d", len(ops), nClients*perClient)
	}
	if ok, err := linearize.Check(linearize.SetSpec{}, ops); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Fatal("server set history is not linearizable")
	}
}

func TestServerHistoryLinearizableQueue(t *testing.T) {
	const nClients, perClient = 4, 40
	ops := runLoggedHistory(t,
		server.Config{Structure: server.StructQueue},
		nClients, perClient,
		func(cl, i int) op.Op {
			if i%2 == 0 {
				return op.Op{Kind: op.Enqueue, Key: int64(cl*1000 + i)}
			}
			return op.Op{Kind: op.Dequeue}
		})
	if ok, err := linearize.Check(linearize.QueueSpec{}, ops); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Fatal("server queue history is not linearizable")
	}
}

func TestServerHistoryLinearizableStack(t *testing.T) {
	const nClients, perClient = 3, 30
	ops := runLoggedHistory(t,
		server.Config{Structure: server.StructStack},
		nClients, perClient,
		func(cl, i int) op.Op {
			if i%2 == 0 {
				return op.Op{Kind: op.Push, Key: int64(cl*1000 + i)}
			}
			return op.Op{Kind: op.Pop}
		})
	if ok, err := linearize.Check(linearize.StackSpec{}, ops); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Fatal("server stack history is not linearizable")
	}
}

// TestLinearizeCatchesCorruptedHistory guards the checker wiring: a
// history with a forged response must be rejected, proving the pass
// above is not vacuous.
func TestLinearizeCatchesCorruptedHistory(t *testing.T) {
	ops := runLoggedHistory(t,
		server.Config{Structure: server.StructQueue},
		2, 20,
		func(cl, i int) op.Op {
			if i%2 == 0 {
				return op.Op{Kind: op.Enqueue, Key: int64(cl*100 + i)}
			}
			return op.Op{Kind: op.Dequeue}
		})
	// Forge the first successful dequeue's output.
	forged := false
	for i := range ops {
		if ops[i].Kind == op.Dequeue && ops[i].OK {
			ops[i].Output += 9999
			forged = true
			break
		}
	}
	if !forged {
		t.Skip("history had no successful dequeue to forge")
	}
	if ok, err := linearize.Check(linearize.QueueSpec{}, ops); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("checker accepted a forged history")
	}
}
