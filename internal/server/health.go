package server

//pimvet:allow-file determinism: the rotation ticker paces observability collection on host wall-clock time by design; nothing here feeds back into simulated behaviour

import (
	"time"

	"pimds/internal/obs"
	"pimds/internal/obs/health"
)

// defaultP99Budget is the latency SLO the stock health rules assume
// when the caller does not set one: generous for a local structure
// server, tight enough that a stalled combiner or GC death-spiral
// trips it immediately.
const defaultP99Budget = 250 * time.Millisecond

// DefaultHealthRules is the stock rule set over the server's own
// metric names, evaluated on every window rotation:
//
//	p99-latency         server/op_latency_ns p99 over the last window
//	slo-burn            error-budget burn against the same p99 budget
//	queue-growth        per-shard queue depth growing monotonically
//	combining-collapse  mean batch size degrading to one op per pass
//	error-rate          rejected / total operations
//	wal-lag             p99 apply-to-durable-ack lag of the WAL pipeline
//
// p99Budget ≤ 0 selects the default budget. Idle windows evaluate ok
// on every rule — an unloaded server is healthy by definition.
func DefaultHealthRules(p99Budget time.Duration) []health.Rule {
	if p99Budget <= 0 {
		p99Budget = defaultP99Budget
	}
	return []health.Rule{
		health.QuantileCeiling{
			RuleName: "p99-latency", Metric: "server/op_latency_ns", Quantile: 0.99,
			Warn: p99Budget, Fail: 4 * p99Budget, MinCount: 50,
		},
		health.SLOBurn{
			RuleName: "slo-burn", Metric: "server/op_latency_ns", Budget: p99Budget,
			Warn: 1, Fail: 5, MinCount: 50,
		},
		health.GaugeGrowth{
			RuleName: "queue-growth", Metric: "server/shard/*/queue_depth",
			Lookback: 5, Warn: 2, Fail: 8, MinValue: 64,
		},
		health.RatioFloor{
			// Warn-only: a collapsed combining factor degrades service but
			// the server still answers; failing is reserved for latency and
			// error rules. MinCount keeps light traffic (where batches of
			// one are expected, not pathological) out of the rule.
			RuleName: "combining-collapse", Metric: "server/shard/*/batch_size",
			Warn: 1.02, MinCount: 2000,
		},
		health.ErrorRate{
			RuleName: "error-rate", Err: "server/ops/rejected", Total: "server/ops/total",
			Warn: 0.01, Fail: 0.10, MinOps: 100,
		},
		health.QuantileCeiling{
			// Commit-pipeline lag: apply-to-durable-ack time per batch. A
			// WAL writer that cannot keep up with the combiners shows here
			// before it shows in op latency. Idle (and WAL-off, where the
			// metric never observes) windows evaluate ok.
			RuleName: "wal-lag", Metric: "server/wal/lag_ns", Quantile: 0.99,
			Warn: 50 * time.Millisecond, Fail: 500 * time.Millisecond, MinCount: 50,
		},
	}
}

// HealthStatus is the /healthz document. Status is the health state
// string ("ok", "degraded", "failing") or "draining" once Shutdown has
// begun; Ready is the load-balancer bit (true only for ok/degraded
// while serving). Rules carries the most recent per-rule results.
type HealthStatus struct {
	Status    string              `json:"status"`
	Ready     bool                `json:"ready"`
	WindowSeq uint64              `json:"window_seq"`
	Rules     []health.RuleResult `json:"rules"`
}

// rotateLoop is the window's dedicated ticker goroutine — the only
// place rotation and health evaluation ever run. By convention,
// readers, writers, combiners and HTTP handlers never call Rotate or
// Evaluate (a rotation snapshots the whole registry under its mutex);
// they read the cached verdict instead, so the hot path's
// allocation-free and non-blocking contracts are untouched by
// observability cadence.
func (s *Server) rotateLoop(tick time.Duration) {
	defer close(s.windowDone)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.windowStop:
			return
		case <-t.C:
			s.rotateOnce()
		}
	}
}

// rotateOnce closes one window interval and refreshes the cached
// verdict. Split from rotateLoop so tests can force a rotation without
// waiting out the ticker.
func (s *Server) rotateOnce() {
	s.win.Rotate()
	v := s.eng.Evaluate(s.win.History())
	s.healthMu.Lock()
	s.verdict = v
	s.healthMu.Unlock()
}

// History returns the windowed metrics document served at
// /metrics/history — empty (zero tiers) when Config.WindowTick is off.
func (s *Server) History() *obs.History {
	return s.win.History()
}

// Health returns the current health document: the verdict cached by
// the last rotation, overridden to draining (and not ready) once
// Shutdown begins. Reading it never evaluates rules and never touches
// the window, so /healthz stays cheap and drain-safe.
func (s *Server) Health() HealthStatus {
	s.healthMu.Lock()
	v := s.verdict
	s.healthMu.Unlock()
	h := HealthStatus{
		Status:    v.State.String(),
		Ready:     v.State != health.Failing,
		WindowSeq: s.win.Seq(),
		Rules:     v.Rules,
	}
	if h.Rules == nil {
		h.Rules = []health.RuleResult{}
	}
	if s.recovering.Load() {
		// WAL replay in progress: the data listener is not accepting yet
		// and the structures are mid-rebuild. Mirrors draining — a
		// distinct status string, not ready, 503 at the ops endpoint.
		h.Status = "recovering"
		h.Ready = false
	}
	if s.draining.Load() {
		h.Status = "draining"
		h.Ready = false
	}
	return h
}
