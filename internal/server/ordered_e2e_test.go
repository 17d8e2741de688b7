package server_test

import (
	"math/rand"
	"sync"
	"testing"

	"pimds/internal/linearize"
	"pimds/internal/server"
	"pimds/internal/wire"
)

// recvAny reads results until n have arrived, accepting fixed and
// variable response frames. Each decode gets a fresh values arena, so
// the returned results' Values stay valid together.
func (c *client) recvAny(t *testing.T, n int) map[uint64]wire.Result {
	t.Helper()
	out := make(map[uint64]wire.Result, n)
	var payload []byte
	for len(out) < n {
		var err error
		payload, err = wire.ReadFrame(c.br, payload[:0])
		if err != nil {
			t.Fatalf("after %d of %d results: %v", len(out), n, err)
		}
		results, _, err := wire.DecodeResponseAny(payload, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			out[r.ID] = r
		}
	}
	return out
}

// doV2 runs one full op (Hi/Limit included) synchronously, accepting
// either response encoding.
func (c *client) doV2(t *testing.T, op wire.Op) wire.Result {
	t.Helper()
	op.ID = 1
	c.send(t, op)
	return c.recvAny(t, 1)[1]
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOrderedOpsOverTheWire drives the full ordered surface — scans
// with pagination, neighbor queries, extremum pops — end to end against
// single-shard list and skip servers.
func TestOrderedOpsOverTheWire(t *testing.T) {
	for _, structure := range []string{server.StructList, server.StructSkip} {
		t.Run(structure, func(t *testing.T) {
			_, addr := startServer(t, server.Config{Structure: structure, KeySpace: 1 << 10})
			c := dial(t, addr)
			for _, k := range []int64{10, 20, 30, 40, 50} {
				if r := c.do(t, wire.Add, k); !r.OK {
					t.Fatalf("add %d: %+v", k, r)
				}
			}

			// A complete scan: cursor lands on Hi.
			r := c.doV2(t, wire.Op{Kind: wire.RangeScan, Key: 15, Hi: 45})
			if !r.OK || r.Value != 45 || !int64sEqual(r.Values, []int64{20, 30, 40}) {
				t.Fatalf("scan [15,45): %+v", r)
			}

			// Limit truncation, then resumption from the cursor.
			r = c.doV2(t, wire.Op{Kind: wire.RangeScan, Key: 0, Hi: 1024, Limit: 2})
			if r.Value != 30 || !int64sEqual(r.Values, []int64{10, 20}) {
				t.Fatalf("limited scan: %+v", r)
			}
			r = c.doV2(t, wire.Op{Kind: wire.RangeScan, Key: r.Value, Hi: 1024})
			if r.Value != 1024 || !int64sEqual(r.Values, []int64{30, 40, 50}) {
				t.Fatalf("resumed scan: %+v", r)
			}

			// An inverted interval is a legal, complete, empty scan.
			r = c.doV2(t, wire.Op{Kind: wire.RangeScan, Key: 900, Hi: 100})
			if !r.OK || r.Value != 100 || len(r.Values) != 0 {
				t.Fatalf("inverted scan: %+v", r)
			}

			// Neighbor queries are strict.
			if r = c.doV2(t, wire.Op{Kind: wire.Pred, Key: 25}); !r.OK || r.Value != 20 {
				t.Fatalf("pred(25): %+v", r)
			}
			if r = c.doV2(t, wire.Op{Kind: wire.Pred, Key: 10}); r.OK {
				t.Fatalf("pred(10) on min key: %+v", r)
			}
			if r = c.doV2(t, wire.Op{Kind: wire.Succ, Key: 30}); !r.OK || r.Value != 40 {
				t.Fatalf("succ(30): %+v", r)
			}
			if r = c.doV2(t, wire.Op{Kind: wire.Succ, Key: 50}); r.OK {
				t.Fatalf("succ(50) on max key: %+v", r)
			}

			// Pops drain the extremes.
			if r = c.doV2(t, wire.Op{Kind: wire.PopMin}); !r.OK || r.Value != 10 {
				t.Fatalf("popmin: %+v", r)
			}
			if r = c.doV2(t, wire.Op{Kind: wire.PopMax}); !r.OK || r.Value != 50 {
				t.Fatalf("popmax: %+v", r)
			}
			if r = c.do(t, wire.Contains, 10); r.OK {
				t.Fatalf("10 still present after popmin: %+v", r)
			}
		})
	}
}

// TestScanPaginationAcrossShards: on a range-partitioned server one
// scan never crosses a shard, but the cursor protocol pages a client
// through every partition without it knowing the boundaries.
func TestScanPaginationAcrossShards(t *testing.T) {
	const keySpace, shards = 64, 4
	_, addr := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: shards, KeySpace: keySpace,
	})
	c := dial(t, addr)
	ops := make([]wire.Op, keySpace)
	for k := range ops {
		ops[k] = wire.Op{ID: uint64(k), Kind: wire.Add, Key: int64(k)}
	}
	c.send(t, ops...)
	c.recv(t, keySpace)

	for _, limit := range []uint16{0, 5} {
		var got []int64
		hops := 0
		for cursor := int64(0); cursor < keySpace; {
			r := c.doV2(t, wire.Op{Kind: wire.RangeScan, Key: cursor, Hi: keySpace, Limit: limit})
			if !r.OK || r.Status != wire.StatusOK {
				t.Fatalf("scan page at %d: %+v", cursor, r)
			}
			// No response may cross the owning shard's bound.
			upper := (cursor/(keySpace/shards) + 1) * (keySpace / shards)
			for _, v := range r.Values {
				if v < cursor || v >= upper {
					t.Fatalf("limit %d: key %d outside shard window [%d,%d)", limit, v, cursor, upper)
				}
			}
			if r.Value > upper {
				t.Fatalf("limit %d: cursor %d beyond shard bound %d", limit, r.Value, upper)
			}
			if r.Value <= cursor {
				t.Fatalf("limit %d: cursor did not advance: %d -> %d", limit, cursor, r.Value)
			}
			got = append(got, r.Values...)
			cursor = r.Value
			hops++
		}
		if len(got) != keySpace {
			t.Fatalf("limit %d: paginated scan returned %d keys, want %d", limit, len(got), keySpace)
		}
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("limit %d: got[%d] = %d", limit, i, v)
			}
		}
		if hops < shards {
			t.Fatalf("limit %d: %d pages, want ≥ %d (one per shard)", limit, hops, shards)
		}
	}
}

// TestOrderedRejections: global kinds need a single shard, unordered
// structures reject the ordered surface, and scan keys are validated
// like any keyed op.
func TestOrderedRejections(t *testing.T) {
	_, sharded := startServer(t, server.Config{Structure: server.StructSkip, Shards: 4, KeySpace: 1 << 10})
	c := dial(t, sharded)
	for _, kind := range []wire.OpKind{wire.Pred, wire.Succ, wire.PopMin, wire.PopMax} {
		if r := c.doV2(t, wire.Op{Kind: kind, Key: 5}); r.Status != wire.StatusBadKind {
			t.Fatalf("%v on a 4-shard server: %+v", kind, r)
		}
	}
	// Scans still work sharded.
	if r := c.doV2(t, wire.Op{Kind: wire.RangeScan, Key: 0, Hi: 10}); r.Status != wire.StatusOK {
		t.Fatalf("scan on a 4-shard server: %+v", r)
	}
	// Scan keys are validated against the key space.
	if r := c.doV2(t, wire.Op{Kind: wire.RangeScan, Key: -1, Hi: 10}); r.Status != wire.StatusBadKey {
		t.Fatalf("scan with negative lo: %+v", r)
	}
	if r := c.doV2(t, wire.Op{Kind: wire.RangeScan, Key: 1 << 10, Hi: 1 << 11}); r.Status != wire.StatusBadKey {
		t.Fatalf("scan with lo at the space bound: %+v", r)
	}

	_, hash := startServer(t, server.Config{Structure: server.StructHash, KeySpace: 1 << 10})
	h := dial(t, hash)
	for _, kind := range []wire.OpKind{wire.RangeScan, wire.Pred, wire.PopMin} {
		if r := h.doV2(t, wire.Op{Kind: kind, Key: 5, Hi: 10}); r.Status != wire.StatusBadKind {
			t.Fatalf("%v on a hash server: %+v", kind, r)
		}
	}
}

// TestServerHistoryLinearizableOrdered is the -race e2e for the ordered
// surface: concurrent clients interleave scans, pops and neighbor
// queries with adds and removes, and the recorded history must satisfy
// the ordered-set spec — including every scan's exact key list and
// cursor.
func TestServerHistoryLinearizableOrdered(t *testing.T) {
	const nClients, perClient, keySpace = 4, 50, 64
	log := server.NewOpLog()
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, KeySpace: keySpace, Log: log,
	})

	var wg sync.WaitGroup
	for cl := 0; cl < nClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dialRaw(t, addr)
			defer c.nc.Close()
			rng := rand.New(rand.NewSource(int64(cl) + 42))
			for i := 0; i < perClient; i++ {
				k := int64(rng.Intn(keySpace))
				var op wire.Op
				switch rng.Intn(8) {
				case 0, 1, 2:
					op = wire.Op{Kind: wire.Add, Key: k}
				case 3:
					op = wire.Op{Kind: wire.Remove, Key: k}
				case 4:
					op = wire.Op{Kind: wire.Contains, Key: k}
				case 5:
					op = wire.Op{Kind: wire.RangeScan, Key: k, Hi: k + int64(rng.Intn(32)), Limit: uint16(rng.Intn(5))}
				case 6:
					if rng.Intn(2) == 0 {
						op = wire.Op{Kind: wire.Pred, Key: k}
					} else {
						op = wire.Op{Kind: wire.Succ, Key: k}
					}
				default:
					if rng.Intn(2) == 0 {
						op = wire.Op{Kind: wire.PopMin}
					} else {
						op = wire.Op{Kind: wire.PopMax}
					}
				}
				op.ID = uint64(i)
				c.send(t, op)
				if res := c.recvAny(t, 1); len(res) != 1 {
					t.Errorf("client %d op %d: %d results", cl, i, len(res))
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	srv.Shutdown()

	ops := log.Ops()
	if want := nClients * perClient; len(ops) != want {
		t.Fatalf("history has %d ops, want %d", len(ops), want)
	}
	scans := 0
	for _, op := range ops {
		if op.Action == linearize.ActScan {
			scans++
		}
	}
	if scans == 0 {
		t.Fatal("history recorded no scans; fix the mix")
	}
	if !linearize.Check(linearize.SetSpec{}, ops) {
		t.Fatal("ordered server history is not linearizable")
	}
}
