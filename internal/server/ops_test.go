package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/server"
)

// get scrapes one ops route in-process.
func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestOpsContentTypes asserts every ops route declares an explicit
// Content-Type, JSON on all of them.
func TestOpsContentTypes(t *testing.T) {
	srv, _ := startServer(t, server.Config{
		Structure: server.StructSkip, Reg: obs.NewRegistry(),
		WindowTick: time.Hour, // rotation forced by tests, never by ticker
	})
	h := srv.OpsHandler()
	routes := map[string]string{
		"/metrics.json":    "application/json",
		"/metrics/history": "application/json",
		"/healthz":         "application/json",
		"/buildinfo":       "application/json",
		"/slow":            "application/json",
		"/trace":           "application/json",
	}
	for path, want := range routes {
		rec := get(t, h, path)
		if ct := rec.Header().Get("Content-Type"); ct != want {
			t.Errorf("%s: Content-Type %q, want %q", path, ct, want)
		}
		if path != "/healthz" && rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", path, rec.Code)
		}
	}
}

// TestMetricsHistoryEndpoint drives real traffic, forces rotations,
// and asserts the history document: one ring at the window tick,
// per-interval counter deltas in every sample, and byte-identical JSON
// across scrapes of the same window state.
func TestMetricsHistoryEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, Shards: 2, KeySpace: 1 << 10,
		Reg: reg, WindowTick: time.Hour,
	})
	c := dial(t, addr)
	const perRound = 10
	for round := 0; round < 3; round++ {
		for i := 0; i < perRound; i++ {
			if r := c.do(t, op.Add, int64(round*perRound+i)); r.Status != op.StatusOK {
				t.Fatalf("add: %+v", r)
			}
		}
		srv.RotateOnce()
	}

	h := srv.OpsHandler()
	first := get(t, h, "/metrics/history")
	second := get(t, h, "/metrics/history")
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("identical window states served different /metrics/history bytes")
	}

	var doc obs.History
	if err := json.Unmarshal(first.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid history JSON: %v", err)
	}
	if doc.Seq != 3 {
		t.Errorf("history seq %d, want 3", doc.Seq)
	}
	if doc.IntervalNS != time.Hour.Nanoseconds() {
		t.Errorf("history interval %d ns, want the window tick", doc.IntervalNS)
	}
	if len(doc.Samples) != 3 {
		t.Fatalf("history holds %d samples, want 3", len(doc.Samples))
	}
	for i, s := range doc.Samples {
		if got := s.Counters["server/ops/total"]; got != perRound {
			t.Errorf("sample %d: ops delta %d, want %d", i, got, perRound)
		}
		if hs := s.Histograms["server/op_latency_ns"]; hs.Count != perRound {
			t.Errorf("sample %d: latency delta count %d, want %d", i, hs.Count, perRound)
		}
	}
}

// healthDoc mirrors the /healthz JSON for assertions.
type healthDoc struct {
	Status    string       `json:"status"`
	Ready     bool         `json:"ready"`
	WindowSeq uint64       `json:"window_seq"`
	Rules     []healthRule `json:"rules"`
}

// healthRule mirrors one /healthz rule result.
type healthRule struct {
	Rule   string  `json:"rule"`
	State  string  `json:"state"`
	Reason string  `json:"reason"`
	Value  float64 `json:"value"`
}

func scrapeHealth(t *testing.T, h http.Handler) (healthDoc, int) {
	t.Helper()
	rec := get(t, h, "/healthz")
	var doc healthDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid /healthz JSON: %v\n%s", err, rec.Body.Bytes())
	}
	return doc, rec.Code
}

// TestHealthzVerdictAndDrainFlip asserts the /healthz lifecycle: ok
// with all six rules while serving, and flipped to draining with 503
// once Shutdown begins.
func TestHealthzVerdictAndDrainFlip(t *testing.T) {
	t.Parallel() // its client stays open: the drain waits out CloseGrace
	srv, addr := startServer(t, server.Config{
		Structure: server.StructSkip, Reg: obs.NewRegistry(),
		WindowTick: time.Hour,
	})
	h := srv.OpsHandler()

	c := dial(t, addr)
	for i := 0; i < 20; i++ {
		c.do(t, op.Add, int64(i))
	}
	srv.RotateOnce()

	doc, code := scrapeHealth(t, h)
	if code != http.StatusOK || doc.Status != "ok" || !doc.Ready {
		t.Fatalf("serving healthz = %+v (code %d), want ok/ready/200", doc, code)
	}
	if doc.WindowSeq != 1 {
		t.Errorf("window seq %d, want 1", doc.WindowSeq)
	}
	if len(doc.Rules) != 6 {
		t.Fatalf("healthz carries %d rules, want 6", len(doc.Rules))
	}
	for _, r := range doc.Rules {
		if r.State != "ok" {
			t.Errorf("rule %s = %s (%s), want ok on an idle server", r.Rule, r.State, r.Reason)
		}
	}

	srv.Shutdown()
	doc, code = scrapeHealth(t, h)
	if code != http.StatusServiceUnavailable || doc.Status != "draining" || doc.Ready {
		t.Fatalf("drained healthz = %+v (code %d), want draining/not-ready/503", doc, code)
	}
}

// TestHealthzWithoutWindow: WindowTick off still serves /healthz (ok,
// zero rules) and /metrics/history (empty history) — observability
// degrades to absent, never to a panic.
func TestHealthzWithoutWindow(t *testing.T) {
	srv, _ := startServer(t, server.Config{Structure: server.StructList})
	h := srv.OpsHandler()
	doc, code := scrapeHealth(t, h)
	if code != http.StatusOK || doc.Status != "ok" || !doc.Ready || len(doc.Rules) != 0 {
		t.Fatalf("windowless healthz = %+v (code %d)", doc, code)
	}
	rec := get(t, h, "/metrics/history")
	var hist obs.History
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatalf("invalid history JSON: %v", err)
	}
	if hist.Seq != 0 || len(hist.Samples) != 0 {
		t.Errorf("windowless history = %+v, want empty", hist)
	}
}

// TestBuildinfoEndpoint asserts /buildinfo serves the binary's build
// document.
func TestBuildinfoEndpoint(t *testing.T) {
	srv, _ := startServer(t, server.Config{Structure: server.StructList})
	rec := get(t, srv.OpsHandler(), "/buildinfo")
	var doc struct {
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
		Module    string `json:"module"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid /buildinfo JSON: %v", err)
	}
	if doc.Version == "" || doc.GoVersion == "" {
		t.Errorf("buildinfo missing fields: %+v", doc)
	}
	if doc.Module != "pimds" {
		t.Errorf("buildinfo module %q, want pimds", doc.Module)
	}
}
