package server_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/server"
	"pimds/internal/wire"
)

// startServer runs an in-process server on an ephemeral port and
// returns it with its address. Serve must return nil, and only once
// the server drains.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, serve(t, srv)
}

// serve runs srv on an ephemeral port, as startServer does, and returns
// its address. An error from Serve (a failed recovery, say) is
// reported the moment Serve returns it, not at cleanup, so the test's
// log names it ahead of whatever the test's clients then see.
func serve(t *testing.T, srv *server.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("Serve returned %v, want nil once drained", err)
		}
	}()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
	})
	return ln.Addr().String()
}

// client is a minimal synchronous wire client for tests.
type client struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
}

func (c *client) send(t *testing.T, ops ...op.Op) {
	t.Helper()
	c.sendTraced(t, wire.TraceContext{}, ops...)
}

// sendTraced sends one request frame carrying tc.
func (c *client) sendTraced(t *testing.T, tc wire.TraceContext, ops ...op.Op) {
	t.Helper()
	buf, err := wire.AppendRequestV2(nil, ops, tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.bw.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// recv reads results until n have arrived. Each decode gets a fresh
// values arena, so the returned results' Values stay valid together.
func (c *client) recv(t *testing.T, n int) map[uint64]op.Result {
	t.Helper()
	out := make(map[uint64]op.Result, n)
	var payload []byte
	var results []op.Result
	var err error
	for len(out) < n {
		payload, err = wire.ReadFrame(c.br, payload[:0])
		if err != nil {
			t.Fatalf("after %d of %d results: %v", len(out), n, err)
		}
		results, _, err = wire.DecodeResponseAny(payload, results[:0], nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			out[r.ID] = r
		}
	}
	return out
}

// do runs one op synchronously.
func (c *client) do(t *testing.T, kind op.Kind, key int64) op.Result {
	t.Helper()
	c.send(t, op.Op{ID: 1, Kind: kind, Key: key})
	return c.recv(t, 1)[1]
}

func TestSetSemanticsOverTheWire(t *testing.T) {
	for _, structure := range []string{server.StructList, server.StructSkip, server.StructHash} {
		t.Run(structure, func(t *testing.T) {
			_, addr := startServer(t, server.Config{Structure: structure, Shards: 4, KeySpace: 1 << 10})
			c := dial(t, addr)

			if r := c.do(t, op.Contains, 7); r.Status != op.StatusOK || r.OK {
				t.Fatalf("contains on empty: %+v", r)
			}
			if r := c.do(t, op.Add, 7); !r.OK {
				t.Fatalf("first add: %+v", r)
			}
			if r := c.do(t, op.Add, 7); r.OK {
				t.Fatalf("second add should report present: %+v", r)
			}
			if r := c.do(t, op.Contains, 7); !r.OK {
				t.Fatalf("contains after add: %+v", r)
			}
			if r := c.do(t, op.Remove, 7); !r.OK {
				t.Fatalf("remove present: %+v", r)
			}
			if r := c.do(t, op.Remove, 7); r.OK {
				t.Fatalf("remove absent: %+v", r)
			}
		})
	}
}

func TestQueueAndStackSemantics(t *testing.T) {
	_, qaddr := startServer(t, server.Config{Structure: server.StructQueue})
	q := dial(t, qaddr)
	q.do(t, op.Enqueue, 10)
	q.do(t, op.Enqueue, 20)
	if r := q.do(t, op.Dequeue, 0); !r.OK || r.Value != 10 {
		t.Fatalf("queue is FIFO: %+v", r)
	}
	if r := q.do(t, op.Dequeue, 0); !r.OK || r.Value != 20 {
		t.Fatalf("queue second dequeue: %+v", r)
	}
	if r := q.do(t, op.Dequeue, 0); r.OK {
		t.Fatalf("dequeue empty: %+v", r)
	}

	_, saddr := startServer(t, server.Config{Structure: server.StructStack})
	s := dial(t, saddr)
	s.do(t, op.Push, 10)
	s.do(t, op.Push, 20)
	if r := s.do(t, op.Pop, 0); !r.OK || r.Value != 20 {
		t.Fatalf("stack is LIFO: %+v", r)
	}
	if r := s.do(t, op.Pop, 0); !r.OK || r.Value != 10 {
		t.Fatalf("stack second pop: %+v", r)
	}
	if r := s.do(t, op.Pop, 0); r.OK {
		t.Fatalf("pop empty: %+v", r)
	}
}

func TestRejectsBadKindAndBadKey(t *testing.T) {
	_, addr := startServer(t, server.Config{Structure: server.StructSkip, KeySpace: 100})
	c := dial(t, addr)
	if r := c.do(t, op.Push, 5); r.Status != op.StatusBadKind {
		t.Fatalf("push to a set server: %+v", r)
	}
	if r := c.do(t, op.Add, 100); r.Status != op.StatusBadKey {
		t.Fatalf("key at the space bound: %+v", r)
	}
	if r := c.do(t, op.Add, -1); r.Status != op.StatusBadKey {
		t.Fatalf("negative key: %+v", r)
	}
	// The connection survives rejected ops.
	if r := c.do(t, op.Add, 99); r.Status != op.StatusOK || !r.OK {
		t.Fatalf("valid op after rejections: %+v", r)
	}
}

// TestMalformedFrameClosesOnlyThatConn: a connection whose frame the
// wire layer rejects is closed unanswered with no op applied, other
// connections keep being served, and the drain still completes — the
// rejected connection's reader and writer have exited, or Shutdown
// (which waits on both) would hang.
func TestMalformedFrameClosesOnlyThatConn(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{Structure: server.StructHash, Shards: 2, KeySpace: 1 << 10, Reg: reg})
	good := dial(t, addr)
	if r := good.do(t, op.Add, 1); !r.OK {
		t.Fatalf("add: %+v", r)
	}

	// Every bad frame tries to add key 2. The retired frame is
	// well-formed under the old type-1 layout (17-byte records).
	retired := []byte{20, 0, 0, 0, 1, 1, 0}
	retired = binary.LittleEndian.AppendUint64(retired, 1)
	retired = append(retired, byte(op.Add))
	retired = binary.LittleEndian.AppendUint64(retired, 2)
	mismatch, err := wire.AppendRequestV2(nil, []op.Op{{ID: 1, Kind: op.Add, Key: 2}}, wire.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(mismatch[5:], 2) // declares two records, carries one
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"retired type", retired},
		{"oversized length", binary.LittleEndian.AppendUint32(nil, wire.MaxPayload+1)},
		{"count/size mismatch", mismatch},
	} {
		before := reg.Snapshot().Counters["server/ops/total"]
		bad := dial(t, addr)
		if _, err := bad.nc.Write(tc.frame); err != nil {
			t.Fatal(err)
		}
		bad.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := wire.ReadFrame(bad.br, nil); err != io.EOF {
			t.Errorf("%s: got %v, want the connection closed unanswered (io.EOF)", tc.name, err)
		}
		bad.nc.Close()
		if after := reg.Snapshot().Counters["server/ops/total"]; after != before {
			t.Errorf("%s: server/ops/total moved %d → %d", tc.name, before, after)
		}
		if r := good.do(t, op.Contains, 1); !r.OK {
			t.Errorf("%s: healthy connection no longer served: %+v", tc.name, r)
		}
	}
	if r := good.do(t, op.Contains, 2); r.OK {
		t.Error("an op from a rejected frame was applied")
	}

	good.nc.Close()
	drained := make(chan struct{})
	go func() { srv.Shutdown(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung: a reader or writer goroutine leaked")
	}
	if open := reg.Snapshot().Gauges["server/conns/open"]; open != 0 {
		t.Errorf("server/conns/open = %d after drain, want 0", open)
	}
}

func TestQueueRefusesShards(t *testing.T) {
	if _, err := server.New(server.Config{Structure: server.StructQueue, Shards: 4}); err == nil {
		t.Fatal("queue with 4 shards must be rejected")
	}
	if _, err := server.New(server.Config{Structure: "btree"}); err == nil {
		t.Fatal("unknown structure must be rejected")
	}
	if _, err := server.New(server.Config{Structure: server.StructHash, QueueDepth: -3}); err == nil || !strings.Contains(err.Error(), "-3") {
		t.Fatalf("negative queue depth: err = %v, want an error naming -3", err)
	}
}

// TestManyClientsRace is the -race e2e: many goroutine clients hammer
// a sharded set server with pipelined batches, and the final structure
// state must equal a sequential replay of the acknowledged ops.
func TestManyClientsRace(t *testing.T) {
	const (
		nClients = 16
		rounds   = 30
		pipeline = 8
		keySpace = 1 << 10
	)
	log := server.NewOpLog()
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 4, KeySpace: keySpace,
		Reg: reg, Log: log,
		// A live window rotating throughout the run: rotation snapshots
		// the registry while combiners hammer it, so -race covers the
		// scrape/record overlap.
		WindowTick: 100 * time.Millisecond,
	})

	var wg sync.WaitGroup
	for cl := 0; cl < nClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			c := &client{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
			ops := make([]op.Op, pipeline)
			var id uint64
			for r := 0; r < rounds; r++ {
				for i := range ops {
					k := int64((cl*31 + r*17 + i*7) % keySpace)
					kind := op.Add
					switch (cl + r + i) % 3 {
					case 1:
						kind = op.Remove
					case 2:
						kind = op.Contains
					}
					ops[i] = op.Op{ID: id, Kind: kind, Key: k}
					id++
				}
				c.send(t, ops...)
				got := c.recv(t, pipeline)
				for _, res := range got {
					if res.Status != op.StatusOK {
						t.Errorf("client %d: unexpected status %v", cl, res.Status)
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	srv.Shutdown()

	// The op log must hold every op and replay to the server's final
	// state.
	ops := log.Ops()
	if want := nClients * rounds * pipeline; len(ops) != want {
		t.Fatalf("op log has %d ops, want %d", len(ops), want)
	}
	final := make(map[int64]bool)
	// Replay in End order: combiner passes are serial per shard and
	// keys are shard-disjoint, so End order is a legal serialization.
	// The sort is stable because one pass's ops share an End and were
	// logged in the order the pass applied them.
	ordered := make([]int, len(ops))
	for i := range ordered {
		ordered[i] = i
	}
	sort.SliceStable(ordered, func(a, b int) bool { return ops[ordered[a]].End < ops[ordered[b]].End })
	for _, i := range ordered {
		o := ops[i]
		switch o.Kind {
		case op.Add:
			if o.OK {
				final[o.Input] = true
			}
		case op.Remove:
			if o.OK {
				delete(final, o.Input)
			}
		}
	}
	var total int
	for _, n := range srv.ShardLens() {
		total += n
	}
	if total != len(final) {
		t.Errorf("server holds %d keys, sequential replay of acked ops holds %d", total, len(final))
	}

	// Under 16 pipelined clients the combiner must actually combine.
	snap := reg.Snapshot()
	var batchN, batchSum float64
	for name, h := range snap.Histograms {
		if strings.Contains(name, "batch_size") {
			batchN += float64(h.Count)
			batchSum += h.Mean * float64(h.Count)
		}
	}
	if batchN == 0 {
		t.Fatal("no batch-size observations recorded")
	}
	if factor := batchSum / batchN; factor <= 1.0 {
		t.Errorf("combining factor %.2f, want > 1 under %d pipelined clients", factor, nClients)
	}
	if snap.Counters["server/ops/total"] != uint64(len(ops)) {
		t.Errorf("ops counter %d != op log %d", snap.Counters["server/ops/total"], len(ops))
	}
}

// TestGracefulDrainLosesNoAckedOps shuts the server down while clients
// are mid-stream and asserts the drain contract: every response the
// clients receive corresponds to an applied op, every applied op's
// response reaches its client (acked set == applied set), and each
// connection's acked ids are exactly the ops of its fully-decoded
// frames — a prefix, no gaps.
func TestGracefulDrainLosesNoAckedOps(t *testing.T) {
	const (
		nClients = 8
		pipeline = 4
		keySpace = 1 << 10
	)
	log := server.NewOpLog()
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 2, KeySpace: keySpace,
		QueueDepth: 16, Log: log,
	})

	type clientTally struct {
		ids map[uint64]bool
	}
	tallies := make([]clientTally, nClients)
	var clientsAcked atomic.Int64 // clients holding at least one response
	var wg sync.WaitGroup
	stopSend := make(chan struct{})
	for cl := 0; cl < nClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			bw := bufio.NewWriter(nc)
			ids := make(map[uint64]bool)
			tallies[cl].ids = ids

			// Writer: stream frames until told to stop, then half-close.
			var id uint64
			done := make(chan struct{})
			go func() {
				defer close(done)
				var buf []byte
				ops := make([]op.Op, pipeline)
				for {
					select {
					case <-stopSend:
						if tc, ok := nc.(*net.TCPConn); ok {
							tc.CloseWrite()
						}
						return
					default:
					}
					for i := range ops {
						ops[i] = op.Op{ID: id, Kind: op.Add, Key: int64(id % keySpace)}
						id++
					}
					buf, _ = wire.AppendRequestV2(buf[:0], ops, wire.TraceContext{})
					if _, err := bw.Write(buf); err != nil {
						return
					}
					if err := bw.Flush(); err != nil {
						return
					}
				}
			}()

			// Reader: collect every response until the server closes.
			var payload []byte
			var results []op.Result
			for {
				payload, err = wire.ReadFrame(br, payload[:0])
				if err != nil {
					if err != io.EOF && err != io.ErrUnexpectedEOF {
						t.Errorf("client %d read: %v", cl, err)
					}
					break
				}
				results, _, err = wire.DecodeResponseAny(payload, results[:0], nil)
				if err != nil {
					t.Errorf("client %d decode: %v", cl, err)
					break
				}
				if len(ids) == 0 && len(results) > 0 {
					clientsAcked.Add(1)
				}
				for _, r := range results {
					if ids[r.ID] {
						t.Errorf("client %d: duplicate response for id %d", cl, r.ID)
					}
					ids[r.ID] = true
				}
			}
			<-done
		}(cl)
	}

	// Let traffic build — wait until every client has a round trip
	// back, not for wall time or a total that a few fast clients can
	// reach alone: a client the server has not yet accepted when the
	// drain starts is reset (listener backlog teardown), not drained —
	// then shut down concurrently with active senders.
	for deadline := time.Now().Add(5 * time.Second); clientsAcked.Load() < nClients; {
		if time.Now().After(deadline) {
			break // final acked==0 check will report it
		}
		time.Sleep(time.Millisecond)
	}
	go srv.Shutdown()
	time.Sleep(10 * time.Millisecond) // let the drain run against live senders
	// Mid-drain, /healthz must report draining and not-ready — the
	// load balancer's cue to stop routing here. The drain cannot finish
	// before close(stopSend) below (each server writer waits for its
	// client's FIN), so every probe here is mid-drain; keep probing
	// while the Shutdown goroutine has not been scheduled yet.
	healthz := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec
	}
	rec := healthz()
	for deadline := time.Now().Add(5 * time.Second); rec.Code == 200 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		rec = healthz()
	}
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), `"status": "draining"`) {
		t.Errorf("mid-drain healthz: code %d body %s", rec.Code, rec.Body.String())
	}
	close(stopSend)
	wg.Wait()

	var acked int
	for cl := range tallies {
		ids := tallies[cl].ids
		acked += len(ids)
		if len(ids)%pipeline != 0 {
			t.Errorf("client %d: %d acks is not a whole number of %d-op frames", cl, len(ids), pipeline)
		}
		// Acked ids must be the exact prefix [0, len(ids)).
		for i := uint64(0); i < uint64(len(ids)); i++ {
			if !ids[i] {
				t.Errorf("client %d: gap in acked ids at %d (%d acked)", cl, i, len(ids))
				break
			}
		}
	}
	applied := len(log.Ops())
	if acked != applied {
		t.Errorf("clients received %d acks but server applied %d ops — drain lost %d acknowledged ops",
			acked, applied, applied-acked)
	}
	if acked == 0 {
		t.Error("test produced no acknowledged ops; raise the sleep")
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("server/ops/total").Add(3)
	rec := httptest.NewRecorder()
	server.MetricsHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"server/ops/total": 3`) {
		t.Fatalf("snapshot missing counter: %s", body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
}

func TestShutdownIdempotentAndServeAfterDrain(t *testing.T) {
	t.Parallel() // its client stays open: the drain waits out CloseGrace
	srv, addr := startServer(t, server.Config{Structure: server.StructList})
	c := dial(t, addr)
	if r := c.do(t, op.Add, 1); !r.OK {
		t.Fatalf("add: %+v", r)
	}
	srv.Shutdown()
	srv.Shutdown() // second call must not panic or hang
	// New dials are refused after drain.
	if nc, err := net.Dial("tcp", addr); err == nil {
		// A listener backlog race can accept; the conn must then be
		// closed immediately.
		nc.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := nc.Read(make([]byte, 1)); err == nil {
			t.Error("connection after shutdown still served")
		}
		nc.Close()
	}
}

// TestDrainWithSilentPeer: a client whose request was answered but
// which never closes its socket holds a drain for at most CloseGrace,
// after which the writer gives up on its FIN. The drain still forgets
// the connection and leaves none of its goroutines behind. The test
// waits out CloseGrace, so it runs in parallel with the other drains
// that do; a pprof label tells its goroutines from theirs.
func TestDrainWithSilentPeer(t *testing.T) {
	t.Parallel()
	label := fmt.Sprintf("%q:%q", "drain", t.Name())
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("drain", t.Name())))
	defer pprof.SetGoroutineLabels(context.Background())
	srv, addr := startServer(t, server.Config{Structure: server.StructList})
	if r := dial(t, addr).do(t, op.Add, 1); !r.OK {
		t.Fatalf("add: %+v", r)
	}
	start := time.Now()
	srv.Shutdown()
	if took := time.Since(start); took > server.CloseGrace+time.Second {
		t.Fatalf("Shutdown took %v with a silent peer, want at most CloseGrace (%v) + 1s", took, server.CloseGrace)
	}
	if n := srv.TrackedConns(); n != 0 {
		t.Fatalf("%d connections tracked after the drain, want 0", n)
	}
	// Only the test goroutine itself carries the label once the drain is
	// done; Serve's goroutine may take a moment to return.
	for deadline := time.Now().Add(time.Second); labelled(label) > 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the server's goroutines outlive the drain", labelled(label)-1)
		}
	}
}

// TestPeerThatNeverReads: a client that sends full-width scans and
// never reads fills its socket buffers, so a response write outlives
// WriteTimeout and the writer fails the connection. While that client
// is stuck, another connection is answered; the failed conn's unwritten
// responses are discarded; and the drain skips its FIN linger, so
// Shutdown does not wait out CloseGrace for a peer that never closes.
func TestPeerThatNeverReads(t *testing.T) {
	t.Parallel()
	label := fmt.Sprintf("%q:%q", "drain", t.Name())
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("drain", t.Name())))
	defer pprof.SetGoroutineLabels(context.Background())
	const keys, frames, scans = 1 << 10, 32, 64
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, KeySpace: keys, Reg: reg, WriteTimeout: 200 * time.Millisecond,
	})
	pre := dial(t, addr)
	var ops []op.Op
	for k := int64(0); k < keys; k++ {
		ops = append(ops, op.Op{ID: uint64(k), Kind: op.Add, Key: k})
	}
	pre.send(t, ops...)
	pre.recv(t, keys)
	pre.nc.Close()

	// Every key is present, so each scan returns wire.MaxScanLimit keys:
	// ≈ 8.5 MiB of responses against a fixed 64 KiB receive buffer.
	stuck := dial(t, addr)
	if err := stuck.nc.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	var burst []byte
	for f := 0; f < frames; f++ {
		ops = ops[:0]
		for i := 0; i < scans; i++ {
			ops = append(ops, op.Op{ID: uint64(i), Kind: op.RangeScan, Key: 0, Hi: keys})
		}
		var err error
		if burst, err = wire.AppendRequestV2(burst, ops, wire.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stuck.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); reg.Snapshot().Counters["server/frames/in"] < 1+frames; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never read the stuck client's frames")
		}
	}

	other := dial(t, addr)
	other.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if r := other.do(t, op.Contains, 1); !r.OK {
		t.Fatalf("contains: %+v", r)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("another connection waited %v for an answer while a peer was stuck, want at most 1s", took)
	}
	other.nc.Close()

	start = time.Now()
	srv.Shutdown()
	if took := time.Since(start); took > server.CloseGrace/2 {
		t.Errorf("Shutdown took %v with a failed peer, want well under CloseGrace (%v)", took, server.CloseGrace)
	}
	if n := srv.TrackedConns(); n != 0 {
		t.Errorf("%d connections tracked after the drain, want 0", n)
	}
	snap := reg.Snapshot()
	if in, out := snap.Counters["server/frames/in"], snap.Counters["server/frames/out"]; out >= in {
		t.Errorf("server/frames/out = %d, server/frames/in = %d: the stuck peer's responses were all written", out, in)
	}
	for deadline := time.Now().Add(time.Second); labelled(label) > 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the server's goroutines outlive the drain", labelled(label)-1)
		}
	}
}

// labelled counts the live goroutines whose pprof labels include label.
func labelled(label string) int {
	var b strings.Builder
	pprof.Lookup("goroutine").WriteTo(&b, 1)
	n := 0
	for _, rec := range strings.Split(b.String(), "\n\n") {
		if !strings.Contains(rec, label) {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if count, _, ok := strings.Cut(line, " @ "); ok {
				k, _ := strconv.Atoi(count)
				n += k
			}
		}
	}
	return n
}

// TestClosedConnsAreForgotten: a connection leaves the server's tracked
// set when its writer exits, so churn pins nothing (each tracked conn
// holds a QueueDepth-deep response queue) and Shutdown pokes only live
// sockets; a Shutdown racing the close is clean under -race. So does a
// client that drops mid-frame, or that closes without reading its
// response, and neither stops the server answering others.
func TestClosedConnsAreForgotten(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{Structure: server.StructHash, Reg: reg})
	for i := 0; i < 200; i++ {
		c := dial(t, addr)
		if r := c.do(t, op.Add, int64(i)); !r.OK {
			t.Fatalf("conn %d: add: %+v", i, r)
		}
		c.nc.Close()
	}
	frame, err := wire.AppendRequestV2(nil, []op.Op{
		{ID: 1, Kind: op.Add, Key: 1000}, {ID: 2, Kind: op.Add, Key: 1001},
	}, wire.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	// The 4-byte length prefix and half the payload, header included.
	midFrame := dial(t, addr)
	if _, err := midFrame.nc.Write(frame[:4+(len(frame)-4)/2]); err != nil {
		t.Fatal(err)
	}
	midFrame.nc.Close()
	unread := dial(t, addr)
	if _, err := unread.nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	unread.nc.Close()
	// Accepted after both, so its answer means both were accepted too.
	other := dial(t, addr)
	if r := other.do(t, op.Contains, 0); !r.OK {
		t.Fatalf("after the closes: contains 0: %+v, want OK", r)
	}
	other.nc.Close()
	// The gauge drops after the writer has left the set, so 0 here
	// means every teardown ran to completion.
	for deadline := time.Now().Add(10 * time.Second); reg.Snapshot().Gauges["server/conns/open"] != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("server/conns/open = %d, want 0 after every client closed",
				reg.Snapshot().Gauges["server/conns/open"])
		}
		time.Sleep(time.Millisecond)
	}
	if n := srv.TrackedConns(); n != 0 {
		t.Fatalf("%d closed connections still tracked, want 0", n)
	}

	var closers sync.WaitGroup
	for i := 0; i < 16; i++ {
		c := dial(t, addr)
		if r := c.do(t, op.Contains, int64(i)); !r.OK {
			t.Fatalf("conn %d: contains: %+v", i, r)
		}
		closers.Add(1)
		go func() { defer closers.Done(); c.nc.Close() }()
	}
	srv.Shutdown()
	closers.Wait()
	if n, open := srv.TrackedConns(), reg.Snapshot().Gauges["server/conns/open"]; n != 0 || open != 0 {
		t.Fatalf("after drain: %d connections tracked, server/conns/open = %d, want 0 and 0", n, open)
	}
}

// TestBackpressureBoundedQueues: a client that sends everything before
// reading anything must not grow the server without bound. Once the
// responses outgrow the socket buffers the writer blocks, answered
// frames stop recycling their records, and the reader must stop
// decoding at the connection's record bound, max(2, QueueDepth/16),
// behind two-slot shard queues — and every result must still arrive.
func TestBackpressureBoundedQueues(t *testing.T) {
	const queueDepth, keys, frames, scans = 2, 1 << 10, 32, 64
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, QueueDepth: queueDepth, KeySpace: keys,
	})
	c := dial(t, addr)
	// A fixed receive buffer turns off autotuning, so the kernel holds
	// well under the ≈ 8.5 MiB of scan responses below.
	if err := c.nc.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	var ops []op.Op
	for k := int64(0); k < keys; k++ {
		ops = append(ops, op.Op{ID: uint64(k), Kind: op.Add, Key: k})
	}
	c.send(t, ops...)
	c.recv(t, keys)

	// Every key is present, so each full-width scan returns
	// wire.MaxScanLimit keys: 32 frames × 64 scans × 4 KiB.
	var id uint64
	for f := 0; f < frames; f++ {
		ops = ops[:0]
		for i := 0; i < scans; i++ {
			ops = append(ops, op.Op{ID: id, Kind: op.RangeScan, Key: 0, Hi: keys})
			id++
		}
		c.send(t, ops...)
	}
	got := c.recv(t, frames*scans)
	if len(got) != frames*scans {
		t.Fatalf("received %d results, want %d", len(got), frames*scans)
	}
	for id, r := range got {
		if r.Status != op.StatusOK || len(r.Values) != wire.MaxScanLimit {
			t.Fatalf("scan %d: status %v, %d keys; want OK and %d", id, r.Status, len(r.Values), wire.MaxScanLimit)
		}
	}
	bound := max(2, queueDepth/16)
	switch n := srv.FrameRecords(); {
	case n > bound:
		t.Errorf("%d decoded frames were unanswered at once, over the bound of %d frame records", n, bound)
	case n < bound:
		t.Errorf("only %d frame records used: the writer never blocked, so the bound of %d went untested", n, bound)
	}
}

// TestOneResponseFramePerRequestFrame: every request frame is answered
// by exactly one response frame, whether its ops are points spread over
// two shards or points mixed with range scans.
func TestOneResponseFramePerRequestFrame(t *testing.T) {
	const conns, frames, frameOps, keys = 2, 200, 64, 1 << 12
	for _, tc := range []struct {
		structure string
		scanPct   int
	}{{server.StructHash, 0}, {server.StructSkip, 30}} {
		t.Run(tc.structure, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, addr := startServer(t, server.Config{Structure: tc.structure, Shards: 2, KeySpace: keys, Reg: reg})
			rng := rand.New(rand.NewSource(1))
			var clients []*client
			for i := 0; i < conns; i++ {
				clients = append(clients, dial(t, addr))
			}
			ops := make([]op.Op, frameOps)
			for f := 0; f < frames; f++ {
				for _, c := range clients {
					for i := range ops {
						k := rng.Int63n(keys)
						ops[i] = op.Op{ID: uint64(i), Kind: op.Kind(rng.Intn(3)), Key: k}
						if rng.Intn(100) < tc.scanPct {
							ops[i] = op.Op{ID: uint64(i), Kind: op.RangeScan, Key: k, Hi: k + 256, Limit: 64}
						}
					}
					c.send(t, ops...)
				}
				for _, c := range clients {
					c.recv(t, frameOps)
				}
			}
			for _, c := range clients {
				c.nc.Close()
			}
			srv.Shutdown() // the writers count a frame after writing it
			snap := reg.Snapshot()
			in, out := snap.Counters["server/frames/in"], snap.Counters["server/frames/out"]
			if in != conns*frames || out != in {
				t.Errorf("server/frames/in = %d, server/frames/out = %d; want %d of each", in, out, conns*frames)
			}
		})
	}
}

func ExampleMetricsHandler() {
	reg := obs.NewRegistry()
	reg.Counter("server/conns/total").Inc()
	rec := httptest.NewRecorder()
	server.MetricsHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	fmt.Println(rec.Code)
	// Output: 200
}
