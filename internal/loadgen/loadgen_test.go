package loadgen_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"pimds/internal/benchfmt"
	"pimds/internal/harness"
	"pimds/internal/loadgen"
	"pimds/internal/obs"
	"pimds/internal/server"
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
	if !strings.Contains(res.String(), "keys/scan") {
		t.Errorf("summary missing scan line:\n%s", res.String())
	}
	row := res.Report().Experiments[0].Tables[0].Rows[0]
	if row[11] == "0" {
		t.Errorf("report scans cell = %q, want > 0", row[11])
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
	if burn := res.Report().Experiments[0].Tables[0].Rows[0][10]; burn != "0.00" {
		t.Errorf("report burn cell = %q, want 0.00", burn)
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

func TestReportIsBenchfmtComparable(t *testing.T) {
	_, addr, _ := startServer(t, server.Config{Structure: server.StructHash})
	run := func() *benchfmt.Report {
		res, err := loadgen.Run(loadgen.Config{
			Addr:     addr,
			Conns:    2,
			Pipeline: 4,
			Duration: 100 * time.Millisecond,
			Seed:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}
	a, b := run(), run()
	// The report must parse numerically: ops/s and the latency columns
	// are what benchdiff watches for regressions.
	tab := a.Experiments[0].Tables[0]
	row := tab.Rows[0]
	// ops/s, the latency percentiles, errors, and the allocation
	// columns must all parse; "slo burn" is a placeholder when no
	// budget is configured.
	for _, col := range []int{3, 4, 5, 6, 7, 8, 9} {
		if _, ok := benchfmt.ParseCell(row[col]); !ok {
			t.Errorf("column %q cell %q is not numeric", tab.Columns[col], row[col])
		}
	}
	if burn := row[10]; burn != "—" {
		t.Errorf("slo burn cell without a budget = %q, want placeholder", burn)
	}
	// Compare must align the two runs structurally (throughput deltas
	// are expected; structural findings are not).
	for _, f := range benchfmt.Compare(a, b, benchfmt.CompareOptions{ThresholdPct: 1e9}) {
		if f.Severity == benchfmt.SevStructure {
			t.Errorf("structural mismatch between identical-shape runs: %s", f)
		}
	}
}
