package main

//pimvet:allow-file determinism: the benchmark measures the host's wall clock by definition; its inputs stay seeded, only timing is physical

import (
	"fmt"
	"math"
	"time"

	"pimds/internal/model"
	"pimds/internal/obs"
	"pimds/internal/prof"
)

// layerRun is the per-layer half of the benchmark for one workload: an
// untraced window (the reference the traced one is compared with), a
// traced window on a fresh server with the registry on and every
// traceEvery-th frame sampled, and the layer replay. The two windows
// get a third of d each; the replay's length is a fixed op count. It
// returns every layerMetrics value by name.
func layerRun(w *workload, seed int64, d time.Duration) (m map[string]float64, attempted, failed uint64, err error) {
	third := d / 3
	m = map[string]float64{}
	// onRig measures fn's window on a fresh rig and books its op counts.
	onRig := func(reg *obs.Registry, fn func(r *rig) error) error {
		o, err := measure(w, seed, reg, third, fn)
		attempted, failed = attempted+o.attempted, failed+o.failed
		if w.durable {
			m["wal.recover_ms"] = o.recoverMS
		}
		return err
	}

	var ref *window
	err = onRig(nil, func(r *rig) (err error) {
		ref, err = r.run(third, false)
		return err
	})
	if err != nil {
		return nil, attempted, failed, err
	}
	m["bench.frame_p99_us"] = ref.latUs(0.99)
	m["bench.proc_allocs_per_op"] = float64(ref.mallocs) / float64(ref.ops)
	m["bench.gc_pause_us_per_s"] = float64(ref.gcPause) / 1e3 / ref.elapsed.Seconds()

	reg := obs.NewRegistry()
	err = onRig(reg, func(r *rig) error {
		before := reg.Snapshot()
		wd, err := r.run(third, true)
		if err != nil {
			return err
		}
		registryMetrics(m, w, before, reg.Snapshot(), wd)
		m["server.trace_overhead_frac"] = 1 - wd.opsPerSec()/ref.opsPerSec()
		var clientSpans []span
		for _, c := range r.clients {
			clientSpans = append(clientSpans, c.spans...)
		}
		spans, err := joinSpans(clientSpans, r.srv.TraceSpans())
		if err != nil {
			return err
		}
		return writeSpanFile(w.name, spans)
	})
	if err != nil {
		return nil, attempted, failed, err
	}

	batch := int(math.Round(m["server.batch_mean"]))
	rp, err := replay(w, seed, batch, replayGroups)
	if err != nil {
		return nil, attempted, failed, err
	}
	attempted, failed = attempted+rp.ops, failed+rp.failed
	for k, v := range rp.metrics {
		m[k] = v
	}
	m["bench.unattributed_frac"] = 1 - rp.nsPerOp/1e3/ref.cpuUsPerOp()
	if w.name == "list_combine" {
		// The paper's FC-list-with-combining row, p/((n−Sp)·L), at the
		// measured per-step cost L, list size n and p = the observed
		// batch. Params carries L as a whole-ns Duration, so evaluate at
		// 1µs and scale: the row is linear in 1/L.
		cfg := model.ListConfig{N: int(w.keySpace / 2), P: batch}
		pred := model.ListFCCombining(model.Params{Lcpu: time.Microsecond, R1: 1, R2: 1, R3: 1}, cfg) * 1e3 / rp.nsPerStep
		m["model.list_pred_ops_per_s"] = pred
		m["model.list_meas_over_pred"] = ref.opsPerSec() / pred
	}
	for _, def := range layerMetrics {
		if v, ok := m[def.name]; !ok {
			m[def.name] = 0 // does not apply to this workload
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, attempted, failed, fmt.Errorf("%s: %s is %v", w.name, def.name, v)
		}
	}
	return m, attempted, failed, nil
}

// registryMetrics derives the server.* and wal.* registry metrics from
// the difference of two snapshots bracketing the traced window.
func registryMetrics(m map[string]float64, w *workload, before, after *obs.Snapshot, wd *window) {
	counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hist := func(name string) obs.HistogramSnapshot { return after.Histograms[name].Sub(before.Histograms[name]) }
	mean := func(hs ...obs.HistogramSnapshot) float64 {
		var sum int64
		var n uint64
		for _, h := range hs {
			sum, n = sum+h.Sum, n+h.Count
		}
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n)
	}
	secs := wd.elapsed.Seconds()

	var batches, scans []obs.HistogramSnapshot
	combines := 0.0
	for i := 0; i < w.shards; i++ {
		batches = append(batches, hist(fmt.Sprintf("server/shard/%03d/batch_size", i)))
		scans = append(scans, hist(fmt.Sprintf("server/shard/%03d/scan_batch", i)))
		combines += counter(fmt.Sprintf("server/shard/%03d/combines", i))
	}
	m["server.batch_mean"] = mean(batches...)
	m["server.scan_batch_mean"] = mean(scans...)
	m["server.combines_per_s"] = combines / secs
	m["server.resp_frames_per_req_frame"] = counter("server/frames/out") / counter("server/frames/in")
	m["server.rejected_ops"] = counter("server/ops/rejected")

	var compSum int64
	for i := 0; i < prof.NumServerComponents; i++ {
		name := prof.ServerComponent(i).String()
		h := hist("server/trace/" + name + "_ns")
		m["server."+name+"_us"] = mean(h) / 1e3
		compSum += h.Sum
	}
	m["server.span_sum_over_e2e"] = float64(compSum) / float64(hist("server/trace/e2e_ns").Sum)

	if w.durable {
		fsyncs, lag := counter("server/wal/fsyncs"), hist("server/wal/lag_ns")
		m["wal.fsyncs_per_s"] = fsyncs / secs
		m["wal.records_per_fsync"] = counter("server/wal/records") / fsyncs
		m["wal.bytes_per_op"] = counter("server/wal/bytes") / float64(wd.ops)
		m["wal.ack_lag_p50_us"] = float64(lag.P50) / 1e3
		m["wal.ack_lag_p99_us"] = float64(lag.P99) / 1e3
	}
}
