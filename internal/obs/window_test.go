package obs

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

// --- HistogramSnapshot.Sub edge cases (delta/merge algebra) ---

func TestSubOfIdenticalSnapshotsIsZero(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 37)
	}
	s := h.Snapshot()
	d := s.Sub(s)
	if d.Count != 0 || d.Sum != 0 || d.Mean != 0 || d.Max != 0 ||
		d.P50 != 0 || d.P95 != 0 || d.P99 != 0 {
		t.Fatalf("Sub(self) not zero: %+v", d)
	}
	if d.Buckets != nil {
		t.Fatalf("Sub(self) kept buckets: %d", len(d.Buckets))
	}
}

func TestSubRoundTripsThroughMerge(t *testing.T) {
	// Phase 1 observations in h1; phase 2 observations in h2; total =
	// h1 merged with h2. Then total.Sub(phase1) must equal h2's own
	// snapshot on every summary field — Sub is Merge's inverse under
	// wraparound-free growth.
	h1, h2 := &Histogram{}, &Histogram{}
	for i := int64(0); i < 500; i++ {
		h1.Observe(1 + i%100)
	}
	for i := int64(0); i < 300; i++ {
		h2.Observe(5000 + i*13)
	}
	s1 := h1.Snapshot()
	total := &Histogram{}
	total.Merge(h1)
	total.Merge(h2)
	d := total.Snapshot().Sub(s1)
	want := h2.Snapshot()
	if d.Count != want.Count || d.Sum != want.Sum || d.Mean != want.Mean {
		t.Fatalf("delta count/sum/mean = %d/%d/%g, want %d/%d/%g",
			d.Count, d.Sum, d.Mean, want.Count, want.Sum, want.Mean)
	}
	if d.P50 != want.P50 || d.P95 != want.P95 || d.P99 != want.P99 {
		t.Fatalf("delta quantiles p50/p95/p99 = %d/%d/%d, want %d/%d/%d",
			d.P50, d.P95, d.P99, want.P50, want.P95, want.P99)
	}
	// The merge raised the running max (phase 2 values exceed phase
	// 1's), so the delta max is exact.
	if d.Max != want.Max {
		t.Fatalf("delta max = %d, want %d", d.Max, want.Max)
	}
	if !reflect.DeepEqual(d.Buckets, want.Buckets) {
		t.Fatal("delta buckets differ from phase-2 buckets")
	}
}

func TestSubEmptyDeltaQuantilesDefined(t *testing.T) {
	// A window interval during which nothing was observed: quantiles,
	// mean and max of the delta are all zero — never NaN, never a
	// panic.
	h := &Histogram{}
	for i := int64(1); i <= 64; i++ {
		h.Observe(i)
	}
	s1 := h.Snapshot()
	s2 := h.Snapshot() // no observations in between
	d := s2.Sub(s1)
	if d.Count != 0 {
		t.Fatalf("empty delta count = %d", d.Count)
	}
	for name, v := range map[string]float64{"mean": d.Mean} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("empty delta %s = %v", name, v)
		}
	}
	if d.P50 != 0 || d.P95 != 0 || d.P99 != 0 || d.Max != 0 {
		t.Fatalf("empty delta quantiles not zero: %+v", d)
	}
	// Same through the zero value entirely.
	z := HistogramSnapshot{}.Sub(HistogramSnapshot{})
	if z.Count != 0 || z.Sum != 0 || z.Mean != 0 || z.Max != 0 ||
		z.P50 != 0 || z.P95 != 0 || z.P99 != 0 || z.Buckets != nil {
		t.Fatalf("zero Sub zero = %+v", z)
	}
}

func TestSubMaxFallsBackToBucketBound(t *testing.T) {
	// When the interval does not raise the running maximum, the delta
	// max degrades to the bucket lower bound of the interval's largest
	// observation — same granularity as the quantiles.
	h := &Histogram{}
	h.Observe(1 << 20) // the all-time max, recorded before the interval
	s1 := h.Snapshot()
	h.Observe(1000)
	d := h.Snapshot().Sub(s1)
	if d.Count != 1 {
		t.Fatalf("delta count = %d", d.Count)
	}
	low := bucketLow(bucketIndex(1000))
	if d.Max != low {
		t.Fatalf("delta max = %d, want bucket bound %d", d.Max, low)
	}
}

func TestSubWithoutBucketsSubtractsSummariesOnly(t *testing.T) {
	prev := HistogramSnapshot{Count: 10, Sum: 100}
	cur := HistogramSnapshot{Count: 30, Sum: 400}
	d := cur.Sub(prev)
	if d.Count != 20 || d.Sum != 300 || d.Mean != 15 {
		t.Fatalf("summary-only delta: %+v", d)
	}
	if d.P50 != 0 || d.Buckets != nil {
		t.Fatalf("summary-only delta must not invent quantiles: %+v", d)
	}
}

// --- Window rotation ---

func TestWindowRingAndDeltas(t *testing.T) {
	reg := NewRegistry()
	ops := reg.Counter("ops")
	depth := reg.Gauge("depth")
	lat := reg.Histogram("lat")

	w := NewWindow(reg, time.Second, 4)

	// Six rotations with 10 ops and one 100ns observation each.
	for r := 1; r <= 6; r++ {
		ops.Add(10)
		depth.Set(int64(r))
		lat.Observe(100)
		w.Rotate()
	}

	h := w.History()
	if h.Seq != 6 {
		t.Fatalf("seq = %d, want 6", h.Seq)
	}
	if h.IntervalNS != time.Second.Nanoseconds() {
		t.Fatalf("interval = %d", h.IntervalNS)
	}
	if len(h.Samples) != 4 {
		t.Fatalf("ring holds %d samples, want 4 (size-bounded)", len(h.Samples))
	}
	for i, s := range h.Samples {
		if s.Counters["ops"] != 10 {
			t.Errorf("sample %d ops delta = %d, want 10", i, s.Counters["ops"])
		}
		if hs := s.Histograms["lat"]; hs.Count != 1 || hs.P50 != bucketLow(bucketIndex(100)) {
			t.Errorf("sample %d lat delta: %+v", i, hs)
		}
		if s.DurNS != time.Second.Nanoseconds() {
			t.Errorf("sample %d dur = %d", i, s.DurNS)
		}
	}
	// Oldest retained sample closed at seq 3 (seqs 1, 2 evicted).
	if got := h.Samples[0].Seq; got != 3 {
		t.Errorf("oldest seq = %d, want 3", got)
	}
	if got := h.Latest().Seq; got != 6 {
		t.Errorf("latest seq = %d, want 6", got)
	}
	// Gauges are instantaneous: the latest sample saw depth=6.
	if got := h.Latest().Gauges["depth"]; got != 6 {
		t.Errorf("latest depth = %d, want 6", got)
	}
}

func TestWindowJSONDeterministic(t *testing.T) {
	// Two windows shown the same registry-state sequence produce
	// byte-identical history documents: no wall-clock, no map-order
	// jitter.
	run := func() []byte {
		reg := NewRegistry()
		w := NewWindow(reg, time.Second, 60)
		for r := 0; r < 90; r++ {
			reg.Counter("server/ops/total").Add(uint64(7 + r%3))
			reg.Gauge("server/shard/000/queue_depth").Set(int64(r % 5))
			reg.Histogram("server/op_latency_ns").Observe(int64(1000 + r*17))
			reg.FloatGauge("imbalance").Set(float64(r) / 90)
			w.Rotate()
		}
		var buf bytes.Buffer
		if err := w.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("history JSON differs across identical registry-state sequences:\n%s\n---\n%s", a, b)
	}
}

func TestWindowNilSafety(t *testing.T) {
	var w *Window
	w.Rotate()
	if w.Seq() != 0 {
		t.Error("nil window seq")
	}
	h := w.History()
	if len(h.Samples) != 0 {
		t.Error("nil window has samples")
	}
	if h.Latest() != nil {
		t.Error("empty history hands out a latest sample")
	}
}
