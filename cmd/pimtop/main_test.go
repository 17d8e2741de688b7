package main

import (
	"reflect"
	"strings"
	"testing"

	"pimds/internal/obs"
	"pimds/internal/server"
)

// canned returns one half-second window sample of a two-shard durable
// server and a health verdict with one degraded rule.
func canned() (*obs.History, *server.HealthStatus) {
	latest := obs.WindowSample{
		Seq:   7,
		DurNS: 500_000_000,
		Counters: map[string]uint64{
			"server/ops/total":          5000,
			"server/frames/in":          100,
			"server/frames/out":         100,
			"server/shard/000/combines": 100,
			"server/shard/001/combines": 50,
			"server/wal/records":        200,
			"server/wal/bytes":          10000,
			"server/wal/fsyncs":         20,
			"server/wal/snapshots":      1,
		},
		Gauges: map[string]int64{
			"server/conns/open":            4,
			"server/shard/000/queue_depth": 3,
			"server/shard/001/queue_depth": 0,
		},
		Histograms: map[string]obs.HistogramSnapshot{
			"server/op_latency_ns":        {P50: 1000, P99: 8000, Max: 20000},
			"server/shard/000/batch_size": {Mean: 30},
			"server/shard/001/batch_size": {Mean: 40},
			"server/wal/group":            {Mean: 10},
			"server/wal/lag_ns":           {P99: 50000},
		},
	}
	earlier := obs.WindowSample{Seq: 6, DurNS: 500_000_000, Counters: map[string]uint64{"server/ops/total": 2500}}
	hist := &obs.History{Seq: 7, IntervalNS: 500_000_000, Samples: []obs.WindowSample{earlier, latest}}
	hd := &server.HealthStatus{
		Status: "degraded", Ready: true, WindowSeq: 7,
		Rules: []server.RuleResult{
			{Rule: "p99-latency", State: "ok"},
			{Rule: "queue-growth", State: "degraded", Reason: "queue depth grew 3 windows running", Value: 3},
		},
	}
	return hist, hd
}

// TestSummarize pins the -json fold: rates are per second of the
// latest sample's width, shard ops/s is combines/s times mean batch,
// and only non-ok rules become alerts.
func TestSummarize(t *testing.T) {
	hist, hd := canned()
	s := summarize(hist, hd)
	if s.Status != "degraded" || !s.Ready || s.WindowSeq != 7 || s.Samples != 2 {
		t.Errorf("header = %q ready=%v seq=%d samples=%d", s.Status, s.Ready, s.WindowSeq, s.Samples)
	}
	if s.OpsPerSec != 10000 || s.P50NS != 1000 || s.P99NS != 8000 || s.ConnsOpen != 4 {
		t.Errorf("ops/s=%v p50=%d p99=%d conns=%d, want 10000 1000 8000 4",
			s.OpsPerSec, s.P50NS, s.P99NS, s.ConnsOpen)
	}
	wantShards := []shardRow{
		{Shard: "000", OpsPerSec: 6000, BatchMean: 30, QueueDepth: 3},
		{Shard: "001", OpsPerSec: 4000, BatchMean: 40, QueueDepth: 0},
	}
	if !reflect.DeepEqual(s.Shards, wantShards) {
		t.Errorf("shards = %+v, want %+v", s.Shards, wantShards)
	}
	wantWAL := &walRow{RecordsPerSec: 400, BytesPerSec: 20000, FsyncsPerSec: 40, GroupMean: 10, LagP99NS: 50000, Snapshots: 1}
	if !reflect.DeepEqual(s.WAL, wantWAL) {
		t.Errorf("wal = %+v, want %+v", s.WAL, wantWAL)
	}
	if len(s.Alerts) != 1 || s.Alerts[0].Rule != "queue-growth" {
		t.Errorf("alerts = %+v, want only queue-growth", s.Alerts)
	}
}

// TestRenderRowsAndAlert: the dashboard prints one row per shard, from
// the same rows summarize builds, and the degraded rule as an alert.
func TestRenderRowsAndAlert(t *testing.T) {
	hist, hd := canned()
	out := render(hist, hd, "http://ops", false)
	for _, row := range []string{
		"  000        6000    30.0       3\n",
		"  001        4000    40.0       0\n",
	} {
		if n := strings.Count(out, row); n != 1 {
			t.Errorf("shard row %q printed %d times in:\n%s", row, n, out)
		}
	}
	if !strings.Contains(out, "[DEGRADED] queue-growth: queue depth grew 3 windows running\n") {
		t.Errorf("degraded rule missing from alerts:\n%s", out)
	}
	if strings.Contains(out, "p99-latency") {
		t.Errorf("ok rule rendered as an alert:\n%s", out)
	}
}
