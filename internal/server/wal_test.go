package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimds/internal/linearize"
	"pimds/internal/server"
	"pimds/internal/wal"
	"pimds/internal/wal/snapshot"
	"pimds/internal/wire"
)

// TestWALDurableRestart: a clean stop/start cycle preserves every
// structure's state through the final snapshot + log.
func TestWALDurableRestart(t *testing.T) {
	t.Run("sets", func(t *testing.T) {
		for _, structure := range []string{server.StructList, server.StructSkip, server.StructHash} {
			t.Run(structure, func(t *testing.T) {
				dir := t.TempDir()
				cfg := server.Config{Structure: structure, Shards: 4, KeySpace: 1 << 10, WALDir: dir}
				srv, addr := startServer(t, cfg)
				c := dial(t, addr)
				for k := int64(0); k < 200; k++ {
					if r := c.do(t, wire.Add, k); !r.OK {
						t.Fatalf("add %d: %+v", k, r)
					}
				}
				for k := int64(0); k < 200; k += 2 {
					if r := c.do(t, wire.Remove, k); !r.OK {
						t.Fatalf("remove %d: %+v", k, r)
					}
				}
				c.nc.Close()
				srv.Shutdown()

				_, addr2 := startServer(t, cfg)
				c2 := dial(t, addr2)
				for k := int64(0); k < 200; k++ {
					want := k%2 == 1
					if r := c2.do(t, wire.Contains, k); r.OK != want {
						t.Fatalf("after restart, contains %d = %v, want %v", k, r.OK, want)
					}
				}
			})
		}
	})
	t.Run("queue", func(t *testing.T) {
		dir := t.TempDir()
		cfg := server.Config{Structure: server.StructQueue, WALDir: dir}
		srv, addr := startServer(t, cfg)
		c := dial(t, addr)
		for k := int64(1); k <= 50; k++ {
			c.do(t, wire.Enqueue, k)
		}
		for k := int64(1); k <= 10; k++ {
			if r := c.do(t, wire.Dequeue, 0); !r.OK || r.Value != k {
				t.Fatalf("dequeue = %+v, want %d", r, k)
			}
		}
		c.nc.Close()
		srv.Shutdown()

		_, addr2 := startServer(t, cfg)
		c2 := dial(t, addr2)
		for k := int64(11); k <= 50; k++ {
			if r := c2.do(t, wire.Dequeue, 0); !r.OK || r.Value != k {
				t.Fatalf("after restart, dequeue = %+v, want %d (FIFO order must survive)", r, k)
			}
		}
		if r := c2.do(t, wire.Dequeue, 0); r.OK {
			t.Fatalf("queue should be empty, got %+v", r)
		}
	})
	t.Run("stack", func(t *testing.T) {
		dir := t.TempDir()
		cfg := server.Config{Structure: server.StructStack, WALDir: dir}
		srv, addr := startServer(t, cfg)
		c := dial(t, addr)
		for k := int64(1); k <= 50; k++ {
			c.do(t, wire.Push, k)
		}
		for k := int64(50); k > 45; k-- {
			if r := c.do(t, wire.Pop, 0); !r.OK || r.Value != k {
				t.Fatalf("pop = %+v, want %d", r, k)
			}
		}
		c.nc.Close()
		srv.Shutdown()

		_, addr2 := startServer(t, cfg)
		c2 := dial(t, addr2)
		for k := int64(45); k > 0; k-- {
			if r := c2.do(t, wire.Pop, 0); !r.OK || r.Value != k {
				t.Fatalf("after restart, pop = %+v, want %d (LIFO order must survive)", r, k)
			}
		}
	})
}

// TestWALFsyncModes: every fsync policy serves and survives a clean
// restart (Close flushes even under FsyncOff).
func TestWALFsyncModes(t *testing.T) {
	for _, mode := range []string{server.FsyncBatch, server.FsyncOff} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cfg := server.Config{Structure: server.StructList, KeySpace: 1 << 10, WALDir: dir, Fsync: mode}
			srv, addr := startServer(t, cfg)
			c := dial(t, addr)
			for k := int64(0); k < 32; k++ {
				if r := c.do(t, wire.Add, k); !r.OK {
					t.Fatalf("add %d under %s: %+v", k, mode, r)
				}
			}
			c.nc.Close()
			srv.Shutdown()
			_, addr2 := startServer(t, cfg)
			c2 := dial(t, addr2)
			for k := int64(0); k < 32; k++ {
				if r := c2.do(t, wire.Contains, k); !r.OK {
					t.Fatalf("key %d lost across %s restart", k, mode)
				}
			}
		})
	}
}

func TestWALRejectsUnknownFsync(t *testing.T) {
	_, err := server.New(server.Config{Structure: server.StructList, WALDir: t.TempDir(), Fsync: "sometimes"})
	if err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("New with bad fsync policy: err = %v, want fsync validation error", err)
	}
}

// TestHealthzRecovering: from New until recovery completes the server
// reports the distinct "recovering" state — 503, not ready, with the
// status as the JSON reason — then recovers to normal reporting.
func TestHealthzRecovering(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Structure: server.StructList, Shards: 2, KeySpace: 1 << 10, WALDir: dir}

	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := srv.Health(); h.Status != "recovering" || h.Ready {
		t.Fatalf("before recovery: health = %+v, want status recovering, not ready", h)
	}
	ts := httptest.NewServer(srv.OpsHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during recovery = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body.String(), `"recovering"`) {
		t.Fatalf("/healthz body %q does not cite recovering", body.String())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	// An accepted connection proves Serve passed recovery.
	c := dial(t, ln.Addr().String())
	if r := c.do(t, wire.Add, 1); !r.OK {
		t.Fatalf("add after recovery: %+v", r)
	}
	if h := srv.Health(); h.Status == "recovering" || !h.Ready {
		t.Fatalf("after recovery: health = %+v, want ready", h)
	}
}

// TestReplayDeterminism: replaying one recorded op log twice — into two
// fresh servers — yields byte-identical state dumps for every
// structure. This is the property that makes the WAL a sound source of
// truth: recovery lands on one state, not one of several plausible
// ones (skip towers included — they draw from the seeded per-shard
// generator in insertion order on both runs).
func TestReplayDeterminism(t *testing.T) {
	cases := []struct {
		structure string
		kinds     []wire.OpKind
	}{
		{server.StructList, []wire.OpKind{wire.Add, wire.Add, wire.Add, wire.Remove, wire.PopMin, wire.PopMax}},
		{server.StructSkip, []wire.OpKind{wire.Add, wire.Add, wire.Add, wire.Remove, wire.PopMin}},
		{server.StructHash, []wire.OpKind{wire.Add, wire.Add, wire.Add, wire.Remove}},
		{server.StructQueue, []wire.OpKind{wire.Enqueue, wire.Enqueue, wire.Dequeue}},
		{server.StructStack, []wire.OpKind{wire.Push, wire.Push, wire.Pop}},
	}
	for _, tc := range cases {
		t.Run(tc.structure, func(t *testing.T) {
			master := t.TempDir()
			l, err := wal.Open(master, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			// A deterministic mixed op stream: conditional mutators
			// (failed adds, pops on empty) included on purpose — they
			// must replay as no-ops both times.
			rng := uint64(42)
			var id uint64
			for seq := uint64(1); seq <= 40; seq++ {
				var ops []wire.Op
				for i := 0; i < 8; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					id++
					kind := tc.kinds[rng%uint64(len(tc.kinds))]
					ops = append(ops, wire.Op{ID: id, Kind: kind, Key: int64((rng >> 33) % 64)})
				}
				if err := l.Append(wal.AppendRecord(nil, 0, seq, ops)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			replayDump := func() []byte {
				// Each replay gets its own copy of the recorded log: a
				// recovered server's shutdown snapshot must not feed the
				// next run.
				dir := t.TempDir()
				data, err := os.ReadFile(filepath.Join(master, wal.SegmentName(0)))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(0)), data, 0o644); err != nil {
					t.Fatal(err)
				}
				srv, err := server.New(server.Config{Structure: tc.structure, KeySpace: 64, WALDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if err := srv.RecoverForTest(); err != nil {
					t.Fatal(err)
				}
				dumps := srv.StateDumps()
				seqs := srv.WALSeqs()
				srv.Shutdown()
				doc := &snapshot.Doc{}
				for i := range dumps {
					doc.Shards = append(doc.Shards, snapshot.Shard{Seq: seqs[i], State: dumps[i]})
				}
				return snapshot.Append(nil, doc)
			}

			first := replayDump()
			second := replayDump()
			if !bytes.Equal(first, second) {
				t.Fatalf("two replays of the same op log produced different state dumps (%d vs %d bytes)", len(first), len(second))
			}
			if len(first) == 0 {
				t.Fatal("empty dump — replay applied nothing")
			}
		})
	}
}

// TestSnapshotTruncatesLog: periodic snapshots prune the segments they
// supersede, and a restart from snapshot + tail reproduces the state.
func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		Structure: server.StructList, Shards: 2, KeySpace: 1 << 12,
		WALDir: dir, SnapshotEvery: 25 * time.Millisecond,
	}
	srv, addr := startServer(t, cfg)
	c := dial(t, addr)
	deadline := time.Now().Add(300 * time.Millisecond)
	var k int64
	for time.Now().Before(deadline) {
		c.do(t, wire.Add, k%(1<<12))
		k++
	}
	c.nc.Close()
	srv.Shutdown()

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	// The final (shutdown) snapshot prunes everything older.
	if len(snaps) != 1 {
		t.Fatalf("snapshot files after drain = %v, want exactly the final one", snaps)
	}
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc, snapSeg, ok, err := snapshot.Latest(dir)
	if err != nil || !ok {
		t.Fatalf("Latest: ok %v err %v", ok, err)
	}
	for _, seg := range segs {
		if seg < snapSeg {
			t.Fatalf("segment %d survived truncation below snapshot boundary %d", seg, snapSeg)
		}
	}
	total := 0
	for _, sh := range doc.Shards {
		total += len(sh.State)
	}
	want := int(k)
	if want > 1<<12 {
		want = 1 << 12
	}
	if total != want {
		t.Fatalf("snapshot carries %d keys, want %d", total, want)
	}

	_, addr2 := startServer(t, cfg)
	c2 := dial(t, addr2)
	for _, probe := range []int64{0, 1, int64(want) - 1} {
		if r := c2.do(t, wire.Contains, probe); !r.OK {
			t.Fatalf("key %d lost across snapshotted restart", probe)
		}
	}
}

// --- kill -9 crash recovery ---

const crashDirEnv = "PIMDS_CRASH_WAL_DIR"

// crashServerConfig is shared by the child process and the parent's
// post-crash restart: recovery must run with the same topology.
func crashServerConfig(dir string) server.Config {
	return server.Config{
		Structure: server.StructList, Shards: 4, KeySpace: 1 << 20,
		WALDir: dir, Fsync: server.FsyncBatch, SnapshotEvery: 75 * time.Millisecond,
	}
}

// TestCrashChild is not a test: it is the server half of the kill -9
// crash test, run in a subprocess so the parent can SIGKILL it
// mid-load. It serves until killed.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("crash-test child entry point; set " + crashDirEnv)
	}
	srv, err := server.New(crashServerConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("CHILD_ADDR=%s\n", ln.Addr().String())
	os.Stdout.Sync()
	if err := srv.Serve(ln); err != nil {
		t.Fatal(err)
	}
}

// crashClient drives one closed-loop connection of unique-key adds
// until the connection dies under it, recording every acknowledged op
// and the single op that was in flight when the crash hit.
type crashClient struct {
	id      int
	acked   []linearize.Op
	pending *linearize.Op // sent, never answered
}

// TestCrashRecoveryKill9 is the durability acceptance test: a server
// killed with SIGKILL mid-load must come back with every acknowledged
// op present, and the combined pre-crash/post-recovery history must
// linearize against the set spec. Ops that were in flight at the kill
// are resolved by observed presence — legal either way for add-only
// unique keys, since an unanswered op may or may not have executed.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	epoch := time.Now()
	now := func() int64 { return time.Since(epoch).Nanoseconds() }

	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "CHILD_ADDR="); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatalf("child exited without announcing an address: %v", sc.Err())
	}
	go func() {
		// Keep draining so the child never blocks on a full stdout pipe.
		for sc.Scan() {
		}
	}()

	const nClients = 6
	var ackedTotal atomic.Int64
	clients := make([]*crashClient, nClients)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		cc := &crashClient{id: ci}
		clients[ci] = cc
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer nc.Close()
			br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
			var buf, payload []byte
			var results []wire.Result
			for i := 0; ; i++ {
				// Unique keys, spread across the key space (odd
				// multiplier, so the map is a bijection mod 2^20) and
				// therefore across shards.
				key := int64(uint64(i*nClients+cc.id) * 7919 % (1 << 20))
				op := linearize.Op{
					Client: cc.id, Action: linearize.ActAdd, Input: key, Start: now(),
				}
				buf, err = wire.AppendRequestV2(buf[:0], []wire.Op{{ID: uint64(i + 1), Kind: wire.Add, Key: key}}, wire.TraceContext{})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := bw.Write(buf); err != nil {
					cc.pending = &op
					return
				}
				if err := bw.Flush(); err != nil {
					cc.pending = &op
					return
				}
				payload, err = wire.ReadFrame(br, payload[:0])
				if err != nil {
					cc.pending = &op
					return
				}
				results, err = wire.DecodeResponse(payload, results[:0])
				if err != nil || len(results) != 1 {
					cc.pending = &op
					return
				}
				op.End = now()
				op.OK = results[0].OK
				cc.acked = append(cc.acked, op)
				ackedTotal.Add(1)
			}
		}()
	}

	// Let the load run long enough to cross snapshot boundaries, then
	// pull the plug mid-flight.
	killAt := time.Now().Add(5 * time.Second)
	for ackedTotal.Load() < 600 && time.Now().Before(killAt) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	wg.Wait()
	if ackedTotal.Load() == 0 {
		t.Fatal("no ops were acknowledged before the kill; the test exercised nothing")
	}
	t.Logf("killed server after %d acked ops", ackedTotal.Load())

	// Restart on the same directory: recovery = snapshot + log tail.
	_, addr2 := startServer(t, crashServerConfig(dir))
	c := dial(t, addr2)

	keys := make(map[int64]bool) // key → was acked
	var history []linearize.Op
	for _, cc := range clients {
		for _, op := range cc.acked {
			if !op.OK {
				// Keys are unique per client and attempted once; a failed
				// add would mean the server invented a duplicate.
				t.Fatalf("client %d: add(%d) acked with OK=false", cc.id, op.Input)
			}
			keys[op.Input] = true
			history = append(history, op)
		}
	}

	lost := 0
	for key, acked := range keys {
		r := c.do(t, wire.Contains, key)
		if acked && !r.OK {
			lost++
			if lost <= 10 {
				t.Errorf("acked add(%d) missing after recovery", key)
			}
		}
		history = append(history, linearize.Op{
			Client: nClients, Action: linearize.ActContains, Input: key,
			Start: now(), End: now() + 1, OK: r.OK,
		})
	}
	if lost > 0 {
		t.Fatalf("%d acknowledged ops lost by the crash (no-acked-loss violated)", lost)
	}

	// Resolve in-flight ops by observed presence: present means the op
	// executed before the kill (its linearization point lies inside
	// [Start, kill] ⊂ [Start, now]); absent means it never took effect
	// and is not part of the history.
	for _, cc := range clients {
		if cc.pending == nil {
			continue
		}
		r := c.do(t, wire.Contains, cc.pending.Input)
		if r.OK {
			op := *cc.pending
			op.End = now()
			op.OK = true
			history = append(history, op)
		}
	}

	sort.Slice(history, func(i, j int) bool { return history[i].Start < history[j].Start })
	if !linearize.Check(linearize.SetSpec{}, history) {
		t.Fatalf("recovered history of %d ops does not linearize against the set spec", len(history))
	}
	t.Logf("history of %d ops linearizes across the crash", len(history))
}
