package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"pimds/internal/obs"
)

// TestMetricsDoNotPerturb: enabling the metrics registry (and a Chrome
// tracer writing to a discard sink) must change simulated results by
// exactly zero — virtual time is cost-model driven, not wall-clock.
func TestMetricsDoNotPerturb(t *testing.T) {
	run := func(instrument bool) (Time, uint64, uint64) {
		e, clients := echoSim(t, 4)
		if instrument {
			e.SetMetrics(obs.NewRegistry())
			e.Attach(NewChromeTracer(io.Discard, e))
		}
		runEcho(e, clients, 5*Microsecond)
		var ops uint64
		for _, cl := range clients {
			ops += cl.Completed
		}
		return e.Now(), ops, e.Processed()
	}
	nowA, opsA, procA := run(false)
	nowB, opsB, procB := run(true)
	if nowA != nowB || opsA != opsB || procA != procB {
		t.Errorf("metrics perturbed the run: (%v,%d,%d) vs (%v,%d,%d)",
			nowA, opsA, procA, nowB, opsB, procB)
	}
}

func TestEngineMetricsSnapshot(t *testing.T) {
	e, clients := echoSim(t, 2)
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	e.SetKindNamer(func(k int) string {
		if k == 1 {
			return "Echo"
		}
		return "Resp"
	})
	if e.Metrics() != reg {
		t.Fatal("Metrics() should return the installed registry")
	}
	runEcho(e, clients, 5*Microsecond)

	s := reg.Snapshot()
	// Per-kind message counts from the send events.
	if s.Counters["msg/sent/Echo"] == 0 || s.Counters["msg/sent/Resp"] == 0 {
		t.Fatalf("per-kind send counters missing: %v", s.Counters)
	}
	// Request latency histograms: requests are kind Echo; one round
	// trip is 2·Lmessage + Lpim = 210ns with the test config.
	lat, ok := s.Histograms["latency/Echo"]
	if !ok || lat.Count == 0 {
		t.Fatalf("latency histogram missing: %v", s.Histograms)
	}
	if lat.P50 < int64(150*Nanosecond) || lat.P50 > int64(600*Nanosecond) {
		t.Errorf("latency p50 = %d ps, expected a few hundred ns", lat.P50)
	}
	if lat.P99 < lat.P50 {
		t.Errorf("p99 (%d) < p50 (%d)", lat.P99, lat.P50)
	}
	// Collector-exported core/vault/channel state.
	if s.Gauges["vault/001/reads"] == 0 {
		t.Errorf("vault read counter missing: %v", s.Gauges)
	}
	if s.Gauges["core/001/busy_ps"] == 0 || s.Gauges["core/001/ops"] == 0 {
		t.Errorf("core gauges missing: %v", s.Gauges)
	}
	if u := s.Floats["vault/001/utilization"]; u <= 0 || u > 1 {
		t.Errorf("vault utilization = %v, want in (0, 1]", u)
	}
	if s.Gauges["engine/events_processed"] == 0 {
		t.Error("engine gauges missing")
	}
	foundChannel := false
	for name := range s.Gauges {
		if strings.HasPrefix(name, "channel/") {
			foundChannel = true
			break
		}
	}
	if !foundChannel {
		t.Errorf("no per-channel gauges in %v", s.Gauges)
	}

	// The document must be valid, stable JSON.
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	for _, section := range []string{"counters", "gauges", "floats", "histograms"} {
		if _, ok := doc[section]; !ok {
			t.Errorf("snapshot missing %q section", section)
		}
	}
}

// TestQueueDepthWatermark: the inbox high-watermark gauge sees bursts.
func TestQueueDepthWatermark(t *testing.T) {
	e := NewEngine(testConfig())
	reg := obs.NewRegistry()
	e.SetMetrics(reg)
	core := e.NewPIMCore(func(c *PIMCore, m Message) { c.Read() })
	cpu := e.NewCPU(func(c *CPU, m Message) {})
	cpu.Exec(func(c *CPU) {
		for i := 0; i < 5; i++ {
			c.Send(Message{To: core.ID(), Kind: 1})
		}
	})
	e.Run()
	s := reg.Snapshot()
	// All five messages arrive while the core can have served at most a
	// few; the watermark must be at least 2 and the queue empty now.
	if got := s.Gauges["core/001/queue_max"]; got < 2 {
		t.Errorf("queue_max = %d, want >= 2 (gauges: %v)", got, s.Gauges)
	}
	if got := s.Gauges["core/001/queue_len"]; got != 0 {
		t.Errorf("queue_len after drain = %d, want 0", got)
	}
}
