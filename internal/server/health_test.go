package server_test

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"pimds/internal/obs"
	"pimds/internal/server"
)

// bucket is the value a histogram reports for a quantile that lands on
// an observation of d: the lower bound of d's bucket.
func bucket(d time.Duration) int64 {
	var h obs.Histogram
	h.Observe(d.Nanoseconds())
	return h.Snapshot().P99
}

// latencies observes n op latencies of d each.
func latencies(n int, d time.Duration) func(*obs.Registry) {
	return func(r *obs.Registry) {
		for i := 0; i < n; i++ {
			r.Histogram("server/op_latency_ns").Observe(d.Nanoseconds())
		}
	}
}

// mixed observes fast op latencies of 1ms and slow ones of 400ms: over
// the 250ms budget, under the 1s failing ceiling.
func mixed(fast, slow int) func(*obs.Registry) {
	return func(r *obs.Registry) {
		latencies(fast, time.Millisecond)(r)
		latencies(slow, 400*time.Millisecond)(r)
	}
}

// depths sets the two shards' queue-depth gauges.
func depths(d0, d1 int64) func(*obs.Registry) {
	return func(r *obs.Registry) {
		r.Gauge("server/shard/000/queue_depth").Set(d0)
		r.Gauge("server/shard/001/queue_depth").Set(d1)
	}
}

// batches observes n combiner passes of the given size on one shard.
func batches(shard string, size int64, n int) func(*obs.Registry) {
	return func(r *obs.Registry) {
		for i := 0; i < n; i++ {
			r.Histogram("server/shard/" + shard + "/batch_size").Observe(size)
		}
	}
}

// ops counts rejected and total operations.
func ops(rejected, total uint64) func(*obs.Registry) {
	return func(r *obs.Registry) {
		r.Counter("server/ops/rejected").Add(rejected)
		r.Counter("server/ops/total").Add(total)
	}
}

// TestHealthVerdict grades registry states through a real server's
// window and /healthz: each round mutates the registry the server
// publishes into, then the window rotates once. Every case names the
// rule results it pins, exactly as /healthz serves them, and the
// overall status; the worst rule state always wins, and only a failing
// verdict is not ready.
func TestHealthVerdict(t *testing.T) {
	type rounds = []func(*obs.Registry)
	p99 := func(d time.Duration) string { return time.Duration(bucket(d)).String() }
	cases := []struct {
		group, name string
		rounds      rounds
		want        []healthRule // pinned results, in /healthz order
		status      string
	}{
		// Latency ceiling: warn at the 250ms budget, fail at 4×. Only the
		// latest window counts, so one slow interval after a fast one
		// trips the rule.
		{"p99-latency", "fast window", rounds{latencies(100, time.Millisecond)},
			[]healthRule{{"p99-latency", "ok", "p99 = " + p99(time.Millisecond) + " within ceiling", float64(bucket(time.Millisecond))}}, "ok"},
		{"p99-latency", "slow latest window", rounds{latencies(100, time.Millisecond), latencies(100, 500*time.Millisecond)},
			[]healthRule{{"p99-latency", "degraded", "p99(server/op_latency_ns) = " + p99(500*time.Millisecond) + " over the last window (warn 250ms, fail 1s)", float64(bucket(500 * time.Millisecond))}}, "failing"},
		{"p99-latency", "catastrophic window", rounds{latencies(100, 2*time.Second)},
			[]healthRule{{"p99-latency", "failing", "p99(server/op_latency_ns) = " + p99(2*time.Second) + " over the last window (warn 250ms, fail 1s)", float64(bucket(2 * time.Second))}}, "failing"},
		{"p99-latency", "idle window", rounds{latencies(1, 5*time.Second)},
			[]healthRule{{"p99-latency", "ok", "idle: 1 observations in window (min 50)", 0}}, "ok"},

		// Error-budget burn against the same budget, read off the
		// quantile staircase: p99 over is ≥1×, p95 over ≥5×, p50 over ≥50×.
		{"slo-burn", "burn 0", rounds{mixed(100, 0)},
			[]healthRule{{"slo-burn", "ok", "burning ≥0× the p99≤250ms error budget over the last window", 0}}, "ok"},
		{"slo-burn", "burn 1", rounds{mixed(98, 2)},
			[]healthRule{{"slo-burn", "degraded", "burning ≥1× the p99≤250ms error budget over the last window", 1}}, "degraded"},
		{"slo-burn", "burn 5", rounds{mixed(90, 10)},
			[]healthRule{{"slo-burn", "failing", "burning ≥5× the p99≤250ms error budget over the last window", 5}}, "failing"},
		{"slo-burn", "burn 50", rounds{mixed(10, 90)},
			[]healthRule{{"slo-burn", "failing", "burning ≥50× the p99≤250ms error budget over the last window", 50}}, "failing"},
		{"slo-burn", "idle", rounds{mixed(0, 10)},
			[]healthRule{{"slo-burn", "ok", "idle: 10 observations in window (min 50)", 0}}, "ok"},

		// Queue depth summed over shards, graded on growth across the
		// last five samples: ×2 degrades, ×8 fails, bouncing or shallow
		// depth is backpressure working.
		{"queue-growth", "monotone growth", rounds{depths(8, 8), depths(16, 16), depths(32, 32), depths(64, 64), depths(128, 128)},
			[]healthRule{{"queue-growth", "failing", "depth grew 16 → 256 monotonically over 5 samples (×16.0)", 256}}, "failing"},
		{"queue-growth", "doubling", rounds{depths(20, 20), depths(24, 24), depths(28, 28), depths(32, 32), depths(40, 40)},
			[]healthRule{{"queue-growth", "degraded", "depth grew 40 → 80 monotonically over 5 samples (×2.0)", 80}}, "degraded"},
		{"queue-growth", "only the last five samples count", rounds{depths(200, 200), depths(32, 32), depths(40, 40), depths(48, 48), depths(56, 56), depths(64, 64)},
			[]healthRule{{"queue-growth", "degraded", "depth grew 64 → 128 monotonically over 5 samples (×2.0)", 128}}, "degraded"},
		{"queue-growth", "bouncing depth", rounds{depths(40, 40), depths(8, 8), depths(48, 48), depths(16, 16), depths(64, 64)},
			[]healthRule{{"queue-growth", "ok", "depth 128 not monotonically growing over 5 samples", 128}}, "ok"},
		{"queue-growth", "tiny depth", rounds{depths(0, 0), depths(1, 0), depths(1, 1), depths(2, 1), depths(2, 2)},
			[]healthRule{{"queue-growth", "ok", "depth 4 not monotonically growing over 5 samples", 4}}, "ok"},
		{"queue-growth", "warming up", rounds{depths(1, 1), depths(2, 2)},
			[]healthRule{{"queue-growth", "ok", "warming up: 2 of 5 samples", 0}}, "ok"},

		// Mean batch size over every shard (Σ sum / Σ count) at or below
		// 1.02 degrades; the rule never fails.
		{"combining-collapse", "factor 8", rounds{batches("000", 8, 2500)},
			[]healthRule{{"combining-collapse", "ok", "mean 8.00 over the last window (warn ≤1.02, fail ≤0.00)", 8}}, "ok"},
		{"combining-collapse", "exact mean across shards", rounds{func(r *obs.Registry) {
			batches("000", 1, 1000)(r)
			batches("001", 3, 1000)(r)
		}},
			[]healthRule{{"combining-collapse", "ok", "mean 2.00 over the last window (warn ≤1.02, fail ≤0.00)", 2}}, "ok"},
		{"combining-collapse", "collapsed factor", rounds{batches("000", 8, 2500), func(r *obs.Registry) {
			batches("000", 1, 1250)(r)
			batches("001", 1, 1250)(r)
		}},
			[]healthRule{{"combining-collapse", "degraded", "mean 1.00 over the last window (warn ≤1.02, fail ≤0.00)", 1}}, "degraded"},
		{"combining-collapse", "idle", rounds{batches("000", 1, 2)},
			[]healthRule{{"combining-collapse", "ok", "idle: 2 observations in window (min 2000)", 0}}, "ok"},

		// Rejected over total ops in the latest window: 1% degrades, 10%
		// fails.
		{"error-rate", "clean window", rounds{ops(0, 1000)},
			[]healthRule{{"error-rate", "ok", "0/1000 errors (0.00%) over the last window (warn 1.00%, fail 10.00%)", 0}}, "ok"},
		{"error-rate", "5% errors", rounds{ops(0, 10000), ops(50, 1000)},
			[]healthRule{{"error-rate", "degraded", "50/1000 errors (5.00%) over the last window (warn 1.00%, fail 10.00%)", 0.05}}, "degraded"},
		{"error-rate", "20% errors", rounds{ops(200, 1000)},
			[]healthRule{{"error-rate", "failing", "200/1000 errors (20.00%) over the last window (warn 1.00%, fail 10.00%)", 0.2}}, "failing"},
		{"error-rate", "idle", rounds{ops(1, 2)},
			[]healthRule{{"error-rate", "ok", "idle: 2 ops in window (min 100)", 0}}, "ok"},

		// WAL ack lag: warn at 50ms, fail at 500ms; a server without a WAL
		// never observes it and is idle.
		{"wal-lag", "no wal", rounds{ops(0, 1000)},
			[]healthRule{{"wal-lag", "ok", "idle: 0 observations in window (min 50)", 0}}, "ok"},
		{"wal-lag", "lagging writer", rounds{func(r *obs.Registry) {
			for i := 0; i < 100; i++ {
				r.Histogram("server/wal/lag_ns").Observe((100 * time.Millisecond).Nanoseconds())
			}
		}},
			[]healthRule{{"wal-lag", "degraded", "p99(server/wal/lag_ns) = " + p99(100*time.Millisecond) + " over the last window (warn 50ms, fail 500ms)", float64(bucket(100 * time.Millisecond))}}, "degraded"},

		// The verdict lists all six rules in order and the worst wins.
		{"worst-state-wins", "failing error rate over fast ops", rounds{func(r *obs.Registry) {
			latencies(1000, time.Millisecond)(r)
			ops(500, 1000)(r)
		}},
			[]healthRule{
				{"p99-latency", "ok", "p99 = " + p99(time.Millisecond) + " within ceiling", float64(bucket(time.Millisecond))},
				{"slo-burn", "ok", "burning ≥0× the p99≤250ms error budget over the last window", 0},
				{"queue-growth", "ok", "warming up: 1 of 5 samples", 0},
				{"combining-collapse", "ok", "idle: 0 observations in window (min 2000)", 0},
				{"error-rate", "failing", "500/1000 errors (50.00%) over the last window (warn 1.00%, fail 10.00%)", 0.5},
				{"wal-lag", "ok", "idle: 0 observations in window (min 50)", 0},
			}, "failing"},
		{"worst-state-wins", "before the first rotation", nil, nil, "ok"},
	}

	for _, group := range []string{"p99-latency", "slo-burn", "queue-growth", "combining-collapse", "error-rate", "wal-lag", "worst-state-wins"} {
		t.Run(group, func(t *testing.T) {
			for _, c := range cases {
				if c.group != group {
					continue
				}
				t.Run(c.name, func(t *testing.T) {
					reg := obs.NewRegistry()
					srv, err := server.New(server.Config{
						Structure: server.StructHash, Shards: 2, Reg: reg,
						WindowTick: time.Hour, // rotation forced by the test
					})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(srv.Shutdown)
					for _, round := range c.rounds {
						round(reg)
						srv.RotateOnce()
					}

					doc, code := scrapeHealth(t, srv.OpsHandler())
					ready, wantCode := true, http.StatusOK
					if c.status == "failing" {
						ready, wantCode = false, http.StatusServiceUnavailable
					}
					if doc.Status != c.status || doc.Ready != ready || code != wantCode {
						t.Errorf("status %q ready %v code %d, want %q", doc.Status, doc.Ready, code, c.status)
					}
					nRules := 6
					if len(c.rounds) == 0 {
						nRules = 0
					}
					if len(doc.Rules) != nRules {
						t.Fatalf("/healthz carries %d rules, want %d: %+v", len(doc.Rules), nRules, doc.Rules)
					}
					var got []healthRule
					for _, r := range doc.Rules {
						for _, w := range c.want {
							if r.Rule == w.Rule {
								got = append(got, r)
							}
						}
					}
					if !reflect.DeepEqual(got, c.want) {
						t.Errorf("rules\n got %+v\nwant %+v", got, c.want)
					}
				})
			}
		})
	}
}
