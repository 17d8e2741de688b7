package server

import (
	"fmt"
	"strings"
	"time"

	"pimds/internal/obs"
)

// windowSamples is the window's retention: a minute of samples at the
// default one-second tick.
const windowSamples = 60

// p99Budget is the op-latency SLO the health verdict grades against:
// generous for a local structure server, tight enough that a stalled
// combiner or GC death-spiral trips it immediately.
const p99Budget = 250 * time.Millisecond

// minLatencyObs is the fewest latency observations a window needs
// before the latency rules judge it.
const minLatencyObs = 50

// Health states, from best to worst.
const (
	stateOK       = "ok"
	stateDegraded = "degraded"
	stateFailing  = "failing"
)

// RuleResult is one health rule's verdict over the window. State is
// "ok", "degraded" or "failing".
type RuleResult struct {
	Rule   string  `json:"rule"`
	State  string  `json:"state"`
	Reason string  `json:"reason"`
	Value  float64 `json:"value"`
}

// HealthStatus is the /healthz document. Status is the worst rule
// state ("ok", "degraded", "failing"), "recovering" during WAL replay,
// or "draining" once Shutdown has begun; Ready is the load-balancer bit
// (true only for ok/degraded while serving). Rules carries the most
// recent per-rule results.
type HealthStatus struct {
	Status    string       `json:"status"`
	Ready     bool         `json:"ready"`
	WindowSeq uint64       `json:"window_seq"`
	Rules     []RuleResult `json:"rules"`
}

// evalHealth grades the window's samples (oldest first, at least one)
// against the server's health rules, in /healthz order:
//
//	p99-latency         server/op_latency_ns p99 over the last window
//	slo-burn            error-budget burn against the same p99 budget
//	queue-growth        summed shard queue depth (slots) growing monotonically
//	combining-collapse  mean batch size degrading to one op per pass
//	error-rate          rejected / total operations
//	wal-lag             p99 apply-to-durable-ack lag of the WAL pipeline
//
// The rules read per-interval deltas, not cumulative totals, because
// health is about dynamics: a p99 ceiling is breached by the last
// second's latency, not the lifetime aggregate. A window too light to
// judge is ok on every rule — an unloaded server is healthy by
// definition.
func evalHealth(samples []obs.WindowSample) []RuleResult {
	last := &samples[len(samples)-1]
	lat := last.Histograms["server/op_latency_ns"]
	return []RuleResult{
		p99Ceiling("p99-latency", "server/op_latency_ns", lat, p99Budget, 4*p99Budget),
		sloBurn(lat),
		queueGrowth(samples),
		combiningCollapse(last),
		errorRate(last),
		// A WAL writer that cannot keep up with the combiners shows here
		// before it shows in op latency. Without a WAL the metric never
		// observes, so the rule stays idle.
		p99Ceiling("wal-lag", "server/wal/lag_ns", last.Histograms["server/wal/lag_ns"],
			50*time.Millisecond, 500*time.Millisecond),
	}
}

// grade maps v against warn and fail thresholds where larger is worse.
func grade(v, warn, fail float64) string {
	switch {
	case v >= fail:
		return stateFailing
	case v >= warn:
		return stateDegraded
	}
	return stateOK
}

// idle is the ok answer for a window with fewer than need events.
func idle(rule string, n uint64, events string, need uint64) RuleResult {
	return RuleResult{Rule: rule, State: stateOK,
		Reason: fmt.Sprintf("idle: %d %s in window (min %d)", n, events, need)}
}

// p99Ceiling grades a histogram's p99 over the last window.
func p99Ceiling(rule, metric string, hs obs.HistogramSnapshot, warn, fail time.Duration) RuleResult {
	if hs.Count < minLatencyObs {
		return idle(rule, hs.Count, "observations", minLatencyObs)
	}
	p99 := time.Duration(hs.P99)
	res := RuleResult{Rule: rule, State: grade(float64(p99), float64(warn), float64(fail)), Value: float64(p99),
		Reason: fmt.Sprintf("p99 = %s within ceiling", p99)}
	if res.State != stateOK {
		res.Reason = fmt.Sprintf("p99(%s) = %s over the last window (warn %s, fail %s)", metric, p99, warn, fail)
	}
	return res
}

// sloBurn estimates how fast the p99 budget's 1% error budget is being
// consumed, from the last window's quantile staircase: p99 over budget
// means at least 1% of requests were over (burn ≥ 1×), p95 over means
// ≥ 5%, p50 over means ≥ 50%. The estimate is a lower bound at
// quantile granularity — the direction an alert should err.
func sloBurn(hs obs.HistogramSnapshot) RuleResult {
	if hs.Count < minLatencyObs {
		return idle("slo-burn", hs.Count, "observations", minLatencyObs)
	}
	budget := p99Budget.Nanoseconds()
	var burn float64
	switch {
	case hs.P50 > budget:
		burn = 50
	case hs.P95 > budget:
		burn = 5
	case hs.P99 > budget:
		burn = 1
	}
	return RuleResult{Rule: "slo-burn", State: grade(burn, 1, 5), Value: burn,
		Reason: fmt.Sprintf("burning ≥%.0f× the p99≤%s error budget over the last window", burn, p99Budget)}
}

// queueGrowth flags the shards' summed queue depth — waiting (frame,
// shard) slots, not ops — rising in every one of the last five samples:
// the onset of overload. Depth bouncing around is backpressure working;
// depth only ever rising is a combiner falling behind. Growth to 2×
// degrades and to 8× fails; a final depth under 64 slots never counts.
func queueGrowth(samples []obs.WindowSample) RuleResult {
	const rule, look = "queue-growth", 5
	if len(samples) < look {
		return RuleResult{Rule: rule, State: stateOK,
			Reason: fmt.Sprintf("warming up: %d of %d samples", len(samples), look)}
	}
	var depth [look]int64
	rising := true
	for i, s := range samples[len(samples)-look:] {
		for name, g := range s.Gauges {
			if _, ok := ShardOf(name, "queue_depth"); ok {
				depth[i] += g
			}
		}
		if i > 0 && depth[i] <= depth[i-1] {
			rising = false
		}
	}
	first, last := depth[0], depth[look-1]
	if !rising || last < 64 {
		return RuleResult{Rule: rule, State: stateOK, Value: float64(last),
			Reason: fmt.Sprintf("depth %d not monotonically growing over %d samples", last, look)}
	}
	ratio := float64(last)
	if first > 0 {
		ratio /= float64(first)
	}
	return RuleResult{Rule: rule, State: grade(ratio, 2, 8), Value: float64(last),
		Reason: fmt.Sprintf("depth grew %d → %d monotonically over %d samples (×%.1f)", first, last, look, ratio)}
}

// combiningCollapse flags the mean batch size over every shard (Σ sum /
// Σ count) falling to 1.02 or below: flat combining has degraded into
// one-op-per-pass serving. It only degrades — the server still answers
// — and it judges only windows of 2000 passes or more, because under
// light traffic batches of one are expected, not pathological.
func combiningCollapse(s *obs.WindowSample) RuleResult {
	const rule, warn, minPasses = "combining-collapse", 1.02, 2000
	var count uint64
	var sum int64
	for name, hs := range s.Histograms {
		if _, ok := ShardOf(name, "batch_size"); ok {
			count += hs.Count
			sum += hs.Sum
		}
	}
	if count < minPasses {
		return idle(rule, count, "observations", minPasses)
	}
	mean := float64(sum) / float64(count)
	st := stateOK
	if mean <= warn {
		st = stateDegraded
	}
	return RuleResult{Rule: rule, State: st, Value: mean,
		Reason: fmt.Sprintf("mean %.2f over the last window (warn ≤%.2f, fail ≤0.00)", mean, warn)}
}

// errorRate grades rejected over total operations in the last window:
// 1% degrades, 10% fails.
func errorRate(s *obs.WindowSample) RuleResult {
	const rule, minOps = "error-rate", 100
	errs, total := s.Counters["server/ops/rejected"], s.Counters["server/ops/total"]
	if total < minOps {
		return idle(rule, total, "ops", minOps)
	}
	frac := float64(errs) / float64(total)
	return RuleResult{Rule: rule, State: grade(frac, 0.01, 0.10), Value: frac,
		Reason: fmt.Sprintf("%d/%d errors (%.2f%%) over the last window (warn 1.00%%, fail 10.00%%)",
			errs, total, frac*100)}
}

// ShardOf extracts NNN from a per-shard metric name
// server/shard/NNN/<metric>.
func ShardOf(name, metric string) (string, bool) {
	rest, ok := strings.CutPrefix(name, "server/shard/")
	if !ok {
		return "", false
	}
	shard, m, ok := strings.Cut(rest, "/")
	if !ok || m != metric {
		return "", false
	}
	return shard, true
}

// rotateLoop is the window's dedicated ticker goroutine — the only
// place rotation and health evaluation ever run. By convention,
// readers, writers, combiners and HTTP handlers never call Rotate or
// evalHealth (a rotation snapshots the whole registry under its mutex);
// they read the cached results instead, so the hot path's
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

// rotateOnce closes one window interval and refreshes the cached rule
// results. Split from rotateLoop so tests can force a rotation without
// waiting out the ticker.
func (s *Server) rotateOnce() {
	s.win.Rotate()
	rules := evalHealth(s.win.History().Samples)
	s.healthMu.Lock()
	s.rules = rules
	s.healthMu.Unlock()
}

// Health returns the current health document: the worst of the rule
// results cached by the last rotation, overridden to recovering or
// draining (and not ready) while the server is not serving. Reading it
// never evaluates rules and never touches the window, so /healthz
// stays cheap and drain-safe.
func (s *Server) Health() HealthStatus {
	s.healthMu.Lock()
	rules := s.rules
	s.healthMu.Unlock()
	h := HealthStatus{Status: stateOK, WindowSeq: s.win.Seq(), Rules: rules}
	for _, r := range rules {
		switch {
		case r.State == stateFailing:
			h.Status = stateFailing
		case r.State == stateDegraded && h.Status == stateOK:
			h.Status = stateDegraded
		}
	}
	h.Ready = h.Status != stateFailing
	if h.Rules == nil {
		h.Rules = []RuleResult{}
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
