package server_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/prof"
	"pimds/internal/server"
	"pimds/internal/wire"
)

// TestSpanComponentsSumToE2E is the acceptance test for the span
// recorder's telescoping stamps: for every sampled request, the six
// components must sum EXACTLY to the measured end-to-end latency — no
// rounding slop, no unattributed residue.
func TestSpanComponentsSumToE2E(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 4, KeySpace: 1 << 10,
		TraceSample: 1, Reg: reg,
	})
	const n = 100
	c := dial(t, addr)
	ops := make([]op.Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, op.Op{ID: uint64(i + 1), Kind: op.Add, Key: int64(i * 7 % 1024)})
	}
	// Several frames so spans cross shard and flush boundaries.
	for i := 0; i < n; i += 10 {
		c.send(t, ops[i:i+10]...)
		c.recv(t, 10)
	}
	c.nc.Close()   // let the server close without waiting out the FIN grace
	srv.Shutdown() // quiesce so every span has finished

	spans := srv.TraceSpans()
	if len(spans) != n {
		t.Fatalf("got %d spans, want %d (sample rate 1 must trace everything)", len(spans), n)
	}
	names := prof.ServerComponents()
	for _, sp := range spans {
		if sp.E2ENS <= 0 {
			t.Fatalf("span %+v has non-positive e2e", sp)
		}
		var sum int64
		for _, name := range names {
			v, ok := sp.ComponentsNS[name]
			if !ok {
				t.Fatalf("span missing component %q: %+v", name, sp)
			}
			if v < 0 {
				t.Fatalf("negative component %s=%d: %+v", name, v, sp)
			}
			sum += v
		}
		if sum != sp.E2ENS {
			t.Fatalf("components sum %d ≠ e2e %d: %+v", sum, sp.E2ENS, sp)
		}
		if len(sp.ComponentsNS) != len(names) {
			t.Fatalf("span has %d components, want %d: %+v", len(sp.ComponentsNS), len(names), sp)
		}
	}
	if got := reg.Snapshot().Counters["server/trace/sampled"]; got != n {
		t.Errorf("sampled counter %d, want %d", got, n)
	}
}

// TestClientOriginatedTrace: with local sampling off, only frames the
// client marks Sampled produce spans, and the client's trace ID rides
// through to the span record.
func TestClientOriginatedTrace(t *testing.T) {
	srv, addr := startServer(t, server.Config{Structure: server.StructHash, KeySpace: 1 << 10})
	c := dial(t, addr)

	c.send(t, op.Op{ID: 1, Kind: op.Add, Key: 1}, op.Op{ID: 2, Kind: op.Add, Key: 2})
	c.recv(t, 2)
	c.sendTraced(t, wire.TraceContext{TraceID: 0xdeadbeef, Sampled: true},
		op.Op{ID: 3, Kind: op.Contains, Key: 1})
	c.recv(t, 1)
	// Trace context present but not sampled: no span.
	c.sendTraced(t, wire.TraceContext{TraceID: 0x77, Sampled: false},
		op.Op{ID: 4, Kind: op.Contains, Key: 2})
	c.recv(t, 1)
	c.nc.Close()
	srv.Shutdown()

	spans := srv.TraceSpans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want exactly the client-sampled op: %+v", len(spans), spans)
	}
	sp := spans[0]
	if sp.TraceID != "0x00000000deadbeef" || sp.OpID != 3 || sp.Kind != "contains" {
		t.Fatalf("span identity wrong: %+v", sp)
	}
}

// TestSlowRequestLog: with a 1ns threshold every sampled request
// qualifies, so the slow log and /slow endpoint must surface them.
func TestSlowRequestLog(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{
		Structure: server.StructList, KeySpace: 1 << 10,
		TraceSample: 1, SlowThreshold: time.Nanosecond, Reg: reg,
	})
	c := dial(t, addr)
	for i := int64(1); i <= 3; i++ {
		c.do(t, op.Add, i)
	}

	ts := httptest.NewServer(srv.OpsHandler())
	defer ts.Close()
	c.nc.Close()
	srv.Shutdown()

	slow := srv.SlowRequests()
	if len(slow) != 3 {
		t.Fatalf("slow log has %d entries, want 3: %+v", len(slow), slow)
	}
	if got := reg.Snapshot().Counters["server/trace/slow"]; got != 3 {
		t.Errorf("slow counter %d, want 3", got)
	}

	resp, err := ts.Client().Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		ThresholdNS int64               `json:"threshold_ns"`
		Spans       []server.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.ThresholdNS != 1 || len(doc.Spans) != 3 {
		t.Fatalf("/slow returned threshold=%d spans=%d", doc.ThresholdNS, len(doc.Spans))
	}
}

// TestWriteChromeTraceValid: the exported trace must be a valid Chrome
// trace-event JSON array whose request slices are tiled by exactly six
// component slices each.
func TestWriteChromeTraceValid(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 2, KeySpace: 1 << 10, TraceSample: 1,
	})
	c := dial(t, addr)
	for i := int64(0); i < 8; i++ {
		c.do(t, op.Add, i*100)
	}
	c.nc.Close()
	srv.Shutdown()

	var buf strings.Builder
	if err := srv.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(buf.String()), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var reqs, comps, metas int
	for _, ev := range events {
		switch ev["cat"] {
		case "request":
			reqs++
			if ev["ph"] != "X" || ev["args"].(map[string]interface{})["trace_id"] == "" {
				t.Fatalf("malformed request slice: %+v", ev)
			}
		case "component":
			comps++
		default:
			if ev["ph"] == "M" {
				metas++
			}
		}
	}
	if reqs != 8 || comps != 8*prof.NumServerComponents || metas == 0 {
		t.Fatalf("got %d request slices, %d component slices, %d metadata events; want 8/%d/>0",
			reqs, comps, metas, 8*prof.NumServerComponents)
	}
}

// TestOpsEndpoint exercises the full introspection surface over HTTP:
// the JSON snapshot at /metrics.json (with per-shard series and the
// trace summaries), pprof, and /trace.
func TestOpsEndpoint(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 2, KeySpace: 1 << 10, TraceSample: 1,
		Reg: obs.NewRegistry(),
	})
	c := dial(t, addr)
	for i := int64(0); i < 6; i++ {
		c.do(t, op.Add, i*128)
	}
	ts := httptest.NewServer(srv.OpsHandler())
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json not a snapshot: %v", err)
	}
	if snap.Counters["server/ops/total"] != 6 {
		t.Errorf("JSON snapshot ops/total = %d, want 6", snap.Counters["server/ops/total"])
	}
	for _, name := range []string{"server/shard/000/combines", "server/shard/001/combines"} {
		if snap.Counters[name] == 0 {
			t.Errorf("JSON snapshot %s = 0, want > 0", name)
		}
	}
	if h := snap.Histograms["server/trace/e2e_ns"]; h.Count == 0 || h.P99 == 0 {
		t.Errorf("JSON snapshot server/trace/e2e_ns = %+v, want sampled spans with a p99", h)
	}

	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(get("/trace")), &events); err != nil {
		t.Fatalf("/trace not valid Chrome JSON: %v", err)
	}
	if strings.TrimSpace(get("/debug/pprof/cmdline")) == "" {
		t.Error("pprof cmdline empty")
	}
	_ = srv
}

// TestMetricsScrapeDuringDrain races live scrapes of /metrics.json
// against traffic and a graceful shutdown; under -race this pins the
// consistent-snapshot guarantee for concurrent scrape + drain.
func TestMetricsScrapeDuringDrain(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{
		Structure: server.StructHash, Shards: 4, KeySpace: 1 << 12,
		TraceSample: 0.5, Reg: reg,
	})
	ops := srv.OpsHandler()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			// Raw client (no test helpers: t.Fatal is main-goroutine
			// only); errors here just mean the drain won the race.
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			var out, in []byte
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				out, _ = wire.AppendRequestV2(out[:0], []op.Op{{ID: uint64(i + 1), Kind: op.Add, Key: (id*1000 + i) % 4096}}, wire.TraceContext{})
				if _, err := nc.Write(out); err != nil {
					return
				}
				if in, err = wire.ReadFrame(br, in[:0]); err != nil {
					return // drain closed the conn; fine
				}
			}
		}(int64(w))
	}
	// A scraper hammers /metrics.json before, during and after Shutdown.
	scrape := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			rec := httptest.NewRecorder()
			ops.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
			if rec.Code != 200 {
				t.Errorf("scrape %d: status %d", i, rec.Code)
			}
			var snap obs.Snapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
				t.Errorf("scrape %d: bad JSON: %v", i, err)
			}
			if i == 50 {
				close(scrape) // mid-scrape: trigger the drain
			}
		}
	}()
	<-scrape
	srv.Shutdown()
	close(stop)
	wg.Wait()

	// Post-drain the snapshot is quiescent and internally consistent.
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["server/trace/e2e_ns"]; ok && h.Count > 0 {
		if h.P50 > h.P99 || h.P99 > h.Max {
			t.Errorf("quiescent histogram inconsistent: %+v", h)
		}
	}
}

// TestSamplingRateAndOverhead sends single-op frames at a 1% sample
// rate: the sampled count must be statistically plausible, and (gated
// on SERVE_E2E_FLOOR, set by CI on dedicated runners) throughput must
// hold the 100k ops/s floor with sampling enabled.
func TestSamplingRateAndOverhead(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 4, KeySpace: 1 << 12,
		TraceSample: 0.01, Reg: reg,
	})
	const frames = 4000
	c := dial(t, addr)
	t0 := time.Now()
	const window = 64 // cap on in-flight ops
	// The server batches results into response frames as it pleases, so
	// count results per frame rather than assuming one frame per op.
	var payload []byte
	var results []op.Result
	outstanding := 0
	drain := func(floor int) {
		var err error
		for outstanding > floor {
			if payload, err = wire.ReadFrame(c.br, payload[:0]); err != nil {
				t.Fatal(err)
			}
			if results, _, err = wire.DecodeResponseAny(payload, results[:0], nil); err != nil {
				t.Fatal(err)
			}
			outstanding -= len(results)
		}
	}
	for i := 0; i < frames; i++ {
		c.send(t, op.Op{ID: uint64(i + 1), Kind: op.Add, Key: int64(i % 4096)})
		outstanding++
		drain(window)
	}
	drain(0)
	elapsed := time.Since(t0)
	c.nc.Close()
	srv.Shutdown()

	sampled := reg.Snapshot().Counters["server/trace/sampled"]
	// Binomial(4000, 0.01): mean 40, σ≈6.3. [5, 200] is > 5σ slack on
	// both sides; outside it the sampler is broken, not unlucky.
	if sampled < 5 || sampled > 200 {
		t.Errorf("sampled %d of %d frames at p=0.01; sampler is off", sampled, frames)
	}
	for _, sp := range srv.TraceSpans() {
		var sum int64
		for _, v := range sp.ComponentsNS {
			sum += v
		}
		if sum != sp.E2ENS {
			t.Fatalf("sampled span breakdown broken: %+v", sp)
		}
	}
	if os.Getenv("SERVE_E2E_FLOOR") != "" {
		opsPerSec := float64(frames) / elapsed.Seconds()
		if opsPerSec < 100_000 {
			t.Errorf("throughput %.0f ops/s under the 100k floor with 1%% sampling", opsPerSec)
		}
	}
}
