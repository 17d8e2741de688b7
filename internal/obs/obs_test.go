package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		f *FloatGauge
		h *Histogram
		r *Registry
	)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	g.SetMax(9)
	f.Set(0.5)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || f.Value() != 0 || h.N() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram must read as zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.FloatGauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.AddCollector(func(*Registry) { t.Fatal("collector on nil registry must not run") })
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ops") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.SetMax(3) // lower: no change
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge after SetMax = %d, want 11", got)
	}
	f := r.FloatGauge("util")
	f.Set(0.25)
	if got := f.Value(); got != 0.25 {
		t.Fatalf("float gauge = %v, want 0.25", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d, want 1000", h.N())
	}
	p50, p95, p99 := h.Percentiles()
	check := func(name string, got, want int64) {
		lo, hi := want-want/6, want+want/6 // log-bucket resolution
		if got < lo || got > hi {
			t.Errorf("%s = %d, want within [%d, %d]", name, got, lo, hi)
		}
	}
	check("p50", p50, 500)
	check("p95", p95, 950)
	check("p99", p99, 990)
	if h.Max() != 1000 {
		t.Fatalf("Max = %d, want 1000", h.Max())
	}
	if m := h.Mean(); m < 499 || m > 502 {
		t.Fatalf("Mean = %v, want ≈ 500.5", m)
	}
	// Non-positive observations clamp to 1.
	var h2 Histogram
	h2.Observe(0)
	h2.Observe(-5)
	if h2.Quantile(1) != 1 {
		t.Fatalf("clamped quantile = %d, want 1", h2.Quantile(1))
	}
}

// TestHistogramBucketBoundaries: an exact power of two is an octave's
// lower bound, so a point mass there reads back exactly; the last value
// before a boundary stays in its octave; an empty histogram reads zero;
// a single observation reads back within one sub-bucket (1/16) below.
func TestHistogramBucketBoundaries(t *testing.T) {
	for _, v := range []int64{1, 2, 4, 1024, 1 << 32} {
		var h Histogram
		for i := 0; i < 10; i++ {
			h.Observe(v)
		}
		if got := h.Quantile(0.5); got != v {
			t.Errorf("point mass at %d: q50 = %d", v, got)
		}
	}
	var h Histogram
	if p50, p95, p99 := h.Percentiles(); p50 != 0 || p95 != 0 || p99 != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram: p50/p95/p99 = %d/%d/%d, mean %v", p50, p95, p99, h.Mean())
	}
	h.Observe(1023)
	if got := h.Quantile(0.5); got < 512 || got > 1023 {
		t.Errorf("1023 binned outside its octave: q50 = %d", got)
	}
	var one Histogram
	one.Observe(777)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got > 777 || float64(got) < 777*(1-1.0/16) {
			t.Errorf("Quantile(%v) of one 777 = %d, want within 1/16 below", q, got)
		}
	}
	if one.Quantile(-1) != one.Quantile(0) || one.Quantile(2) != one.Quantile(1) {
		t.Error("q outside [0, 1] is not clamped")
	}
}

// TestHistogramQuantileAccuracy: against exact order statistics of
// random data, a quantile is the lower bound of the sub-bucket holding
// that order statistic, so it is at most 1/16 below it. Folding two
// halves together gives the same quantiles as recording the whole.
func TestHistogramQuantileAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h, a, b Histogram
		xs := make([]int64, 500)
		for i := range xs {
			xs[i] = rng.Int63n(1<<20) + 1
			h.Observe(xs[i])
			if i%2 == 0 {
				a.Observe(xs[i])
			} else {
				b.Observe(xs[i])
			}
		}
		a.Merge(&b)
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			exact := xs[int(q*float64(len(xs)-1))]
			got := h.Quantile(q)
			if got > exact || float64(got) < float64(exact)*(1-1.0/16) || a.Quantile(q) != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.N() != 8000 {
		t.Fatalf("N = %d, want 8000", h.N())
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b/count").Add(2)
	r.Counter("a/count").Add(1)
	r.Gauge("depth").Set(4)
	r.FloatGauge("util").Set(0.5)
	r.Histogram("lat").Observe(128)
	collected := 0
	r.AddCollector(func(reg *Registry) {
		collected++
		reg.Gauge("collected").Set(int64(collected))
	})

	var buf1, buf2 bytes.Buffer
	if err := r.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if collected != 2 {
		t.Fatalf("collector ran %d times, want 2", collected)
	}
	// Identical metric values → byte-identical documents, except the
	// collector-updated gauge; normalize it and compare.
	n1 := strings.ReplaceAll(buf1.String(), `"collected": 1`, `"collected": N`)
	n2 := strings.ReplaceAll(buf2.String(), `"collected": 2`, `"collected": N`)
	if n1 != n2 {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", n1, n2)
	}

	var s Snapshot
	if err := json.Unmarshal(buf1.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Counters["a/count"] != 1 || s.Counters["b/count"] != 2 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Histograms["lat"].Count != 1 || s.Histograms["lat"].P50 != 128 {
		t.Fatalf("histogram snapshot = %+v", s.Histograms["lat"])
	}
}
