package main

//pimvet:allow-file determinism: the benchmark measures the host's wall clock by definition; its inputs stay seeded, only timing is physical

import (
	"pimds/internal/harness"
	"pimds/internal/server"
)

// The load shape is fixed, not derived from nproc, so numbers compare
// across hosts: callers of a combining structure each wait for their
// reply, hence closed loop, one frame outstanding per connection —
// conns × frameOps = 128 ops outstanding.
const (
	conns    = 2
	frameOps = 64
	// preloadOps is the frame size of the half-occupancy preload; larger
	// than frameOps so a durable preload pays a handful of fsyncs.
	preloadOps = 512
	// traceEvery: in the traced window every 16th frame carries a
	// sampled TraceContext.
	traceEvery = 16
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name      string
	why       string
	structure string
	shards    int
	keySpace  int64
	mix       harness.Mix
	scanSpan  int64
	scanLimit uint16
	durable   bool
}

// workloads are the contract: names and shapes must not change under a
// later PR, or its numbers stop comparing with this baseline.
var workloads = []workload{
	{
		name: "hash_point", structure: server.StructHash, shards: 2, keySpace: 1 << 16,
		mix: harness.Mix{ContainsPct: 60, AddPct: 20, RemovePct: 20},
		why: "apply is ~5% of request time, so channel hops, per-op copies, wire codec and socket flushes dominate: pipeline and wire changes show here, backend changes must not",
	},
	{
		name: "list_combine", structure: server.StructList, shards: 1, keySpace: 1 << 15,
		mix: harness.Mix{ContainsPct: 60, AddPct: 20, RemovePct: 20},
		why: "the paper's FC list with combining: one sorted traversal per batch dominates, throughput follows p/((n-Sp)L); backend and batching changes show here, pipeline changes barely",
	},
	{
		name: "skip_scan", structure: server.StructSkip, shards: 2, keySpace: 1 << 16,
		mix:      harness.Mix{ContainsPct: 50, AddPct: 10, RemovePct: 10, ScanPct: 30},
		scanSpan: 256, scanLimit: 64,
		why: "V2 bounds, variable-length response frames and shared-traversal scans run beside point ops, so a point-path gain that taxes the ordered path shows up",
	},
	{
		name: "skip_durable", structure: server.StructSkip, shards: 2, keySpace: 1 << 16,
		mix:     harness.Mix{ContainsPct: 60, AddPct: 20, RemovePct: 20},
		durable: true,
		why:     "same traffic paced by group-commit fsync with cores not saturated: WAL and ack-path changes show here only; CPU savings move cpu_us_per_op, not ops_per_s",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric. bound is the share of the baseline median
// by which an end-to-end metric may worsen (unused for per-layer ones).
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// e2eMetrics are what a user of the server sees. failed_ops_frac is the
// sixth: it must be 0, so it travels as the failed/attempted counts of
// the result line instead of as a bounded metric. The bounded tail is
// p95: p99 sits on the cliff between ordinary frames and GC- or
// preemption-hit ones, swings ~30% with host drift, and is reported
// unbounded as bench.frame_p99_us.
var e2eMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"frame_p50_us", "us", "lower", 0.25},
	{"frame_p95_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// layerMetrics are the per-layer numbers of the traced run, the registry
// and the layer replay. A metric that does not apply to a workload
// (wal.* off skip_durable, cds.scan_ns_per_key off skip_scan, model.*
// off list_combine) reads 0 there.
var layerMetrics = []metricDef{
	{"wire.encode_req_ns_per_op", "ns", "lower", 0},
	{"wire.decode_req_ns_per_op", "ns", "lower", 0},
	{"wire.encode_resp_ns_per_op", "ns", "lower", 0},
	{"wire.decode_resp_ns_per_op", "ns", "lower", 0},
	{"wire.req_bytes_per_op", "B", "lower", 0},
	{"wire.resp_bytes_per_op", "B", "lower", 0},
	{"wire.allocs_per_frame", "count", "lower", 0},

	{"cds.apply_ns_per_op", "ns", "lower", 0},
	{"cds.apply_ns_per_batch", "ns", "lower", 0},
	{"cds.steps_per_op", "count", "lower", 0},
	{"cds.scan_ns_per_key", "ns", "lower", 0},

	{"server.batch_mean", "count", "higher", 0},
	{"server.combines_per_s", "1/s", "higher", 0},
	{"server.scan_batch_mean", "count", "higher", 0},
	{"server.resp_frames_per_req_frame", "ratio", "lower", 0},
	{"server.rejected_ops", "count", "lower", 0},
	{"server.read_decode_us", "us", "lower", 0},
	{"server.queue_wait_us", "us", "lower", 0},
	{"server.combine_wait_us", "us", "lower", 0},
	{"server.apply_us", "us", "lower", 0},
	{"server.resp_encode_us", "us", "lower", 0},
	{"server.write_flush_us", "us", "lower", 0},
	{"server.span_sum_over_e2e", "ratio", "higher", 0},
	{"server.trace_overhead_frac", "ratio", "lower", 0},

	{"wal.fsyncs_per_s", "1/s", "lower", 0},
	{"wal.records_per_fsync", "count", "higher", 0},
	{"wal.bytes_per_op", "B", "lower", 0},
	{"wal.ack_lag_p50_us", "us", "lower", 0},
	{"wal.ack_lag_p99_us", "us", "lower", 0},
	{"wal.stage_ns_per_op", "ns", "lower", 0},
	{"wal.append_ns_per_record", "ns", "lower", 0},
	{"wal.sync_us", "us", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},

	{"model.list_pred_ops_per_s", "1/s", "higher", 0},
	{"model.list_meas_over_pred", "ratio", "higher", 0},

	{"bench.frame_p99_us", "us", "lower", 0},
	{"bench.client_ns_per_op", "ns", "lower", 0},
	{"bench.proc_allocs_per_op", "count", "lower", 0},
	{"bench.gc_pause_us_per_s", "us/s", "lower", 0},
	{"bench.unattributed_frac", "ratio", "lower", 0},
}
