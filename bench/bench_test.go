package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pimds/internal/wire"
)

// sandbox points the benchmark's scratch and output directories into the
// test's temp dir and shrinks the replay.
func sandbox(t *testing.T) {
	t.Helper()
	oldTmp, oldOut, oldGroups := tmpRoot, outDir, replayGroups
	tmpRoot, outDir, replayGroups = filepath.Join(t.TempDir(), "tmp"), filepath.Join(t.TempDir(), "out"), 20
	t.Cleanup(func() { tmpRoot, outDir, replayGroups = oldTmp, oldOut, oldGroups })
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json is the contract other
// PRs are measured against; it must describe exactly what the program
// emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their why differs)", i, w.Name, workloads[i].name)
		}
	}
	nameRE, unitRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`), regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %q: bound %v, the program has %v", kind, g.Name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics, true)
	check("per_layer", doc.PerLayer, layerMetrics, false)
}

// applies reports whether a per-layer metric is measured on w (elsewhere
// it reads 0).
func applies(metric string, w *workload) bool {
	switch {
	case strings.HasPrefix(metric, "wal."):
		return w.durable
	case metric == "cds.scan_ns_per_key" || metric == "server.scan_batch_mean":
		return w.mix.ScanPct > 0
	case strings.HasPrefix(metric, "model."):
		return w.name == "list_combine"
	}
	return true
}

// mayBeZero are applicable metrics whose healthy value can be 0.
var mayBeZero = map[string]bool{
	"server.rejected_ops": true, "wire.allocs_per_frame": true, "bench.gc_pause_us_per_s": true,
	"server.trace_overhead_frac": true, "bench.proc_allocs_per_op": true,
}

// TestEveryWorkloadEmitsEveryMetric runs each workload through both
// result lines on a short window.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("drives live servers for a few seconds")
	}
	sandbox(t)
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			var stdout bytes.Buffer
			if err := single(&stdout, io.Discard, w.name, 7, 900*time.Millisecond, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var line resultLine
			dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace=%v: last line is not a result: %v", w.name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, line.Correct, line.Failed, line.Attempted)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, def := range want {
				v, ok := line.Metrics[def.name]
				if !ok || v.Unit != def.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %+v (present %v), want a finite value in %s", w.name, def.name, v, ok, def.unit)
				}
				if trace && !applies(def.name, w) && v.Value != 0 {
					t.Errorf("%s: %s = %v, want 0 where it does not apply", w.name, def.name, v.Value)
				}
				if (!trace || applies(def.name, w)) && !mayBeZero[def.name] && v.Value == 0 {
					t.Errorf("%s: %s is 0", w.name, def.name)
				}
			}
			if trace {
				if v := line.Metrics["server.span_sum_over_e2e"].Value; math.Abs(v-1) > 0.01 {
					t.Errorf("%s: server.span_sum_over_e2e = %v, want 1 ± 0.01", w.name, v)
				}
				checkSpanFile(t, w)
			}
		}
	}
}

// checkSpanFile: the span file parses, spans of a frame share its id,
// children lie inside their parents, and every frame carries its 64 op
// spans, each tiled by the six server components.
func checkSpanFile(t *testing.T, w *workload) {
	t.Helper()
	data, err := os.ReadFile(spanFile(w.name))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: span file: %v", w.name, err)
	}
	byID := map[int]span{}
	children := map[int][]span{}
	roots := 0
	for _, sp := range spans {
		if sp.ID <= 0 || byID[sp.ID].ID != 0 || sp.EndNS < sp.StartNS || sp.Name == "" {
			t.Fatalf("%s: bad span %+v", w.name, sp)
		}
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, sp := range spans {
		if sp.Parent == 0 {
			roots++
			if sp.Name != rootSpan {
				t.Errorf("%s: root span named %q", w.name, sp.Name)
			}
			ops := 0
			for _, ch := range children[sp.ID] {
				if ch.Name == "server.op" {
					ops++
					at := ch.StartNS
					for _, comp := range children[ch.ID] {
						if comp.StartNS != at {
							t.Errorf("%s: component %q starts at %d, previous ended at %d", w.name, comp.Name, comp.StartNS, at)
						}
						at = comp.EndNS
					}
					if len(children[ch.ID]) != 6 || at != ch.EndNS {
						t.Errorf("%s: server.op has %d components ending at %d, op ends at %d", w.name, len(children[ch.ID]), at, ch.EndNS)
					}
				}
			}
			if ops != frameOps {
				t.Errorf("%s: frame %s has %d server.op spans, want %d", w.name, sp.Trace, ops, frameOps)
			}
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok || p.Trace != sp.Trace {
			t.Fatalf("%s: span %+v: parent missing or under another trace id", w.name, sp)
		}
		if sp.StartNS < p.StartNS || sp.EndNS > p.EndNS {
			t.Errorf("%s: %s [%d,%d] lies outside its parent %s [%d,%d]", w.name, sp.Name, sp.StartNS, sp.EndNS, p.Name, p.StartNS, p.EndNS)
		}
	}
	if roots == 0 {
		t.Errorf("%s: span file holds no frame", w.name)
	}
}

// answer builds the result the oracle expects for op i of c's frame.
func answer(c *client, i int) wire.Result {
	r := wire.Result{ID: c.ops[i].ID, Status: wire.StatusOK, OK: c.want[i]}
	if op := c.ops[i]; op.Kind == wire.RangeScan {
		keys := c.scanKeys[c.scanOff[i]:c.scanOff[i+1]]
		r.Value = op.Hi
		if len(keys) > int(op.Limit) {
			r.Value, keys = keys[op.Limit], keys[:op.Limit]
		}
		r.Values = append([]int64{}, keys...)
	}
	return r
}

// TestOracleCatchesWrongAnswers injects each kind of wrong answer into
// an otherwise right response.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	w := findWorkload("skip_scan")
	fresh := func() (*client, []wire.Result) {
		c := newClient(w, 0, 1, 3) // one owner: its own keys are every key, so it can forge whole scans
		for k := int64(0); k < w.keySpace; k += 2 {
			c.set(k, true)
		}
		c.fill()
		res := make([]wire.Result, frameOps)
		for i := range res {
			res[i] = answer(c, i)
		}
		return c, res
	}
	first := func(c *client, kind wire.OpKind) int {
		for i, op := range c.ops {
			if op.Kind == kind && (kind != wire.RangeScan || c.scanOff[i+1]-c.scanOff[i] >= 2) {
				return i
			}
		}
		t.Fatalf("frame holds no %v", kind)
		return -1
	}
	c, res := fresh()
	if c.verify(res); c.failed != 0 || c.pending != 0 {
		t.Fatalf("right answers: failed=%d pending=%d", c.failed, c.pending)
	}
	for name, tamper := range map[string]func(*client, []wire.Result){
		"flipped contains": func(c *client, res []wire.Result) { i := first(c, wire.Contains); res[i].OK = !res[i].OK },
		"flipped add":      func(c *client, res []wire.Result) { i := first(c, wire.Add); res[i].OK = !res[i].OK },
		"bad status":       func(c *client, res []wire.Result) { res[0].Status = wire.StatusBadKey },
		"duplicate id":     func(c *client, res []wire.Result) { res[1].ID = res[0].ID },
		"foreign id":       func(c *client, res []wire.Result) { res[2].ID += 1 << 40 },
		"scan drops a key": func(c *client, res []wire.Result) { i := first(c, wire.RangeScan); res[i].Values = res[i].Values[1:] },
		"scan invents a key": func(c *client, res []wire.Result) {
			i := first(c, wire.RangeScan)
			res[i].Values = append(res[i].Values, res[i].Values[len(res[i].Values)-1]+1)
		},
		"scan out of order": func(c *client, res []wire.Result) {
			v := res[first(c, wire.RangeScan)].Values
			v[0], v[1] = v[1], v[0]
		},
		"scan past its cursor": func(c *client, res []wire.Result) {
			i := first(c, wire.RangeScan)
			res[i].Value = res[i].Values[len(res[i].Values)-1]
		},
		"values on a point op": func(c *client, res []wire.Result) { res[first(c, wire.Remove)].Values = []int64{1} },
	} {
		c, res := fresh()
		tamper(c, res)
		if c.verify(res); c.failed == 0 {
			t.Errorf("%s: the oracle accepted it", name)
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 9}, 1.5, 10.5},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
