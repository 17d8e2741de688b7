package loadgen_test

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"pimds/internal/harness"
	"pimds/internal/loadgen"
	"pimds/internal/obs"
	"pimds/internal/server"
	"pimds/internal/wire"
)

func startServer(t *testing.T, cfg server.Config) (*server.Server, string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Reg = reg
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
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
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String(), reg
}

func TestClosedLoopAgainstServer(t *testing.T) {
	_, addr, reg := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 4, KeySpace: 1 << 12,
	})
	nConns := 64
	if testing.Short() {
		nConns = 8
	}
	res, err := loadgen.Run(loadgen.Config{
		Addr:     addr,
		Conns:    nConns,
		Pipeline: 16,
		Duration: 300 * time.Millisecond,
		Dist:     harness.Uniform{N: 1 << 12},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Errors != 0 {
		t.Fatalf("%d error responses", res.Errors)
	}
	if res.Latency.N() != res.Ops {
		t.Fatalf("latency histogram has %d samples for %d ops", res.Latency.N(), res.Ops)
	}
	// The summary carries what CI greps, and no SLO line without a budget.
	line := res.String()
	for _, want := range []string{fmt.Sprintf("%d ops in", res.Ops), " ops/s (closed, ", " 0 errors;"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary lacks %q:\n%s", want, line)
		}
	}
	if _, ok := res.SLO(); ok || strings.Contains(line, "SLO") {
		t.Errorf("run without a budget reports an SLO verdict:\n%s", line)
	}

	// The paper's central claim, transplanted: under many concurrent
	// connections one combiner pass serves multiple requests.
	snap := reg.Snapshot()
	var n, sum float64
	for name, h := range snap.Histograms {
		if strings.Contains(name, "batch_size") {
			n += float64(h.Count)
			sum += h.Mean * float64(h.Count)
		}
	}
	if n == 0 {
		t.Fatal("no combiner batches recorded")
	}
	if factor := sum / n; factor <= 1.0 {
		t.Errorf("combining factor %.2f under %d connections, want > 1", factor, nConns)
	}
}

// TestRunRejectsBadConfig: out-of-range settings fail before any dial,
// naming the field; zero still means the default and gets as far as
// dialing (nothing listens on port 0).
func TestRunRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  loadgen.Config
		want string
	}{
		{"negative conns", loadgen.Config{Conns: -1}, "Conns"},
		{"negative pipeline", loadgen.Config{Pipeline: -1}, "Pipeline"},
		{"pipeline over frame cap", loadgen.Config{Pipeline: wire.MaxOpsPerFrame + 1}, "Pipeline"},
		{"negative rate", loadgen.Config{Rate: -1}, "Rate"},
		{"zeros are defaults", loadgen.Config{}, "dial"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Addr = "127.0.0.1:0"
			res, err := loadgen.Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil {
				t.Fatalf("Run(%+v) = %v, %v; want an error naming %q", tc.cfg, res, err, tc.want)
			}
		})
	}
}

func TestOpenLoopAgainstServer(t *testing.T) {
	_, addr, _ := startServer(t, server.Config{
		Structure: server.StructHash, Shards: 2, KeySpace: 1 << 12,
	})
	res, err := loadgen.Run(loadgen.Config{
		Addr:     addr,
		Conns:    4,
		Rate:     2000,
		Duration: 250 * time.Millisecond,
		Dist:     harness.Uniform{N: 1 << 12},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Errors != 0 {
		t.Fatalf("%d error responses", res.Errors)
	}
	// Open loop at 2000/s for 250ms ≈ 500 ops; allow wide slack but
	// catch a runaway injector (closed-loop would do far more).
	if res.Ops > 2000 {
		t.Errorf("open loop completed %d ops, expected ≈500 (pacing broken?)", res.Ops)
	}
}

// TestOpenLoopCountsUnansweredOps: a peer that reads every request and
// never answers, without closing, must fail the run with the lost ops
// counted rather than end it cleanly with a short Ops.
func TestOpenLoopCountsUnansweredOps(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the open loop's drain bound")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c) // read every request, answer none
		<-stop                 // and hold the connection open past the half-close
	}()

	res, err := loadgen.Run(loadgen.Config{
		Addr:     ln.Addr().String(),
		Conns:    1,
		Rate:     1000,
		Duration: 50 * time.Millisecond,
		Dist:     harness.Uniform{N: 1 << 12},
		Seed:     3,
	})
	if err == nil || !strings.Contains(err.Error(), "responses lost") {
		t.Fatalf("run against a silent peer: err = %v, want lost responses", err)
	}
	if res.Ops != 0 {
		t.Errorf("silent peer answered %d ops", res.Ops)
	}
}

func TestQueueAndStackLoads(t *testing.T) {
	for _, structure := range []string{server.StructQueue, server.StructStack} {
		t.Run(structure, func(t *testing.T) {
			_, addr, _ := startServer(t, server.Config{Structure: structure})
			res, err := loadgen.Run(loadgen.Config{
				Addr:      addr,
				Structure: structure, // loadgen names match the serial structures
				Conns:     4,
				Pipeline:  8,
				Duration:  150 * time.Millisecond,
				Seed:      5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if res.Errors != 0 {
				t.Fatalf("%d error responses", res.Errors)
			}
		})
	}
}

func TestOrderedMixAgainstServer(t *testing.T) {
	// A mix with ordered kinds: scans come back in variable-size frames
	// and their cardinality is tallied. Single shard so the global kinds (popmin/succ) are legal.
	const keySpace = 1 << 12
	_, addr, _ := startServer(t, server.Config{
		Structure: server.StructSkip, KeySpace: keySpace,
	})
	mix, err := harness.ParseMix("40/20/15,scan:15,popmin:5,succ:5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadgen.Config{
		Addr:      addr,
		Conns:     4,
		Pipeline:  8,
		Duration:  200 * time.Millisecond,
		Dist:      harness.Uniform{N: keySpace},
		Mix:       mix,
		Seed:      17,
		ScanSpan:  256,
		ScanLimit: 32,
	}
	if err := loadgen.Preload(cfg); err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Errors != 0 {
		t.Fatalf("%d error responses", res.Errors)
	}
	if res.Scans == 0 {
		t.Fatal("a 15%% scan mix completed no scans")
	}
	// The space is preloaded half full, so a 256-wide scan capped at 32
	// should usually return keys.
	if res.ScanKeys == 0 {
		t.Fatal("scans over a half-full key space returned no keys")
	}
	if kps := res.KeysPerScan(); kps <= 0 || kps > 32 {
		t.Fatalf("keys/scan %.1f outside (0, 32]", kps)
	}
	if want := fmt.Sprintf("%d scans returned %d keys", res.Scans, res.ScanKeys); !strings.Contains(res.String(), want) {
		t.Errorf("summary lacks %q:\n%s", want, res.String())
	}
}

func TestPreloadFillsHalfTheKeySpace(t *testing.T) {
	const keySpace = 1 << 10
	srv, addr, _ := startServer(t, server.Config{
		Structure: server.StructList, Shards: 4, KeySpace: keySpace,
	})
	if err := loadgen.Preload(loadgen.Config{
		Addr: addr,
		Dist: harness.Uniform{N: keySpace},
		Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	var total int
	for _, n := range srv.ShardLens() {
		total += n
	}
	if total != keySpace/2 {
		t.Fatalf("preload left %d keys, want %d", total, keySpace/2)
	}
}

// TestPreloadRejectsOutOfRangeKeys: a preload over a wider key space
// than the server's fails on the first refused add, naming the key and
// the status, instead of reporting success.
func TestPreloadRejectsOutOfRangeKeys(t *testing.T) {
	const keySpace = 1 << 10
	_, addr, _ := startServer(t, server.Config{Structure: server.StructList, Shards: 2, KeySpace: keySpace})
	err := loadgen.Preload(loadgen.Config{
		Addr: addr,
		Dist: harness.Uniform{N: 64 * keySpace},
		Seed: 1,
	})
	if err == nil {
		t.Fatal("preload of keys the server refuses reported success")
	}
	var key int64
	if _, scanErr := fmt.Sscanf(err.Error(), "loadgen: preload add of key %d:", &key); scanErr != nil || key < keySpace {
		t.Fatalf("error %q names no out-of-range key", err)
	}
	if !strings.Contains(err.Error(), "bad-key") {
		t.Fatalf("error %q does not name the status", err)
	}
}

func TestZipfLoadSkewsShards(t *testing.T) {
	// A zipf key stream against range-partitioned shards must hit
	// shard 0 (which owns the hot low keys) hardest — the imbalance
	// scenario the satellite asks uniform-only workloads never
	// produce.
	const keySpace = 1 << 12
	_, addr, reg := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 4, KeySpace: keySpace,
	})
	dist, err := harness.ParseKeyDist("zipf:1.4", keySpace)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(loadgen.Config{
		Addr:     addr,
		Conns:    8,
		Pipeline: 8,
		Duration: 200 * time.Millisecond,
		Dist:     dist,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	snap := reg.Snapshot()
	shard0 := snap.Counters["server/shard/000/combines"]
	shard3 := snap.Counters["server/shard/003/combines"]
	h0 := snap.Histograms["server/shard/000/batch_size"]
	h3 := snap.Histograms["server/shard/003/batch_size"]
	ops0 := float64(h0.Count) * h0.Mean
	ops3 := float64(h3.Count) * h3.Mean
	if ops0 <= ops3 {
		t.Errorf("zipf load served %0.f ops on hot shard 0 vs %0.f on shard 3 (combines %d vs %d); expected skew toward shard 0",
			ops0, ops3, shard0, shard3)
	}
}

func TestTraceOriginationAndSLO(t *testing.T) {
	// Server-side sampling off: every span the server records below
	// must come from the client's traced frames.
	srv, addr, reg := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 2, KeySpace: 1 << 12,
	})
	res, err := loadgen.Run(loadgen.Config{
		Addr:        addr,
		Conns:       4,
		Pipeline:    8,
		Duration:    200 * time.Millisecond,
		Dist:        harness.Uniform{N: 1 << 12},
		Seed:        13,
		TraceSample: 1,
		SLOP99:      10 * time.Second, // generous: must PASS
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.TracedFrames == 0 {
		t.Fatal("TraceSample=1 sent no traced frames")
	}
	slo, ok := res.SLO()
	if !ok || !slo.Met || slo.OverBudget != 0 || slo.BurnRate != 0 {
		t.Fatalf("10s budget should pass cleanly: %+v (ok=%v)", slo, ok)
	}
	if !strings.Contains(res.String(), ": PASS (") || !strings.Contains(res.String(), "burn 0.00") {
		t.Errorf("summary lacks a passing SLO line with burn 0.00:\n%s", res.String())
	}
	srv.Shutdown()
	if got := reg.Snapshot().Counters["server/trace/sampled"]; got != res.Ops {
		t.Errorf("server sampled %d ops, want every one of the client's %d (client-originated tracing)", got, res.Ops)
	}
	if spans := srv.TraceSpans(); len(spans) == 0 {
		t.Error("no spans recorded from client-originated trace frames")
	}

	// An impossible 1ns budget must FAIL with every response burning.
	impossible := res
	impossible.Cfg.SLOP99 = time.Nanosecond
	impossible.OverBudget = impossible.Ops
	slo, ok = impossible.SLO()
	if !ok || slo.Met {
		t.Fatalf("1ns budget cannot be met: %+v", slo)
	}
	if slo.BurnRate < 99 {
		t.Errorf("all-over-budget burn rate %.2f, want ≈100", slo.BurnRate)
	}
}
