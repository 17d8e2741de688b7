package benchfmt

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParseCell(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"34.1M", 34.1e6, true},
		{"2.5K", 2500, true},
		{"1.2G", 1.2e9, true},
		{"16", 16, true},
		{"0.97", 0.97, true},
		{"1.234µs", 1234, true}, // durations parse in time.Duration ns units
		{"90ns", 90, true},
		{"42.1%", 0.421, true},
		{"—", 0, false},
		{"pim list", 0, false},
		{"", 0, false},
		{"enq+deq", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseCell(c.in)
		if ok != c.ok {
			t.Errorf("ParseCell(%q) ok=%v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if math.Abs(got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("ParseCell(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func report(ops, p99 string) *Report {
	return &Report{
		Name:   "pimbench",
		Params: Params{R1: 3, R2: 3, R3: 1, LcpuNS: 90, Seed: 1},
		Experiments: []ExperimentResult{{
			ID: "latency",
			Tables: []Table{{
				Title:   "Latency breakdown",
				Columns: []string{"structure", "clients", "ops/s", "p99", "mem%"},
				Rows: [][]string{
					{"pim list", "16", ops, p99, "40.0%"},
					{"pim skip", "16", "20.0M", "2µs", "55.0%"},
				},
			}},
		}},
	}
}

func TestCompareCleanWithinThreshold(t *testing.T) {
	old := report("10.0M", "1µs")
	new := report("10.5M", "1.05µs") // +5%, below 10%
	if fs := Compare(old, new, CompareOptions{ThresholdPct: 10}); len(fs) != 0 {
		t.Fatalf("expected no findings, got %v", fs)
	}
}

// TestCompareZeroThresholdIsExact: threshold 0 is the exact gate CI
// holds the seeded simulator tables to, not a request for a default.
func TestCompareZeroThresholdIsExact(t *testing.T) {
	old := report("10.0M", "1µs")
	if fs := Compare(old, report("10.0M", "1µs"), CompareOptions{}); len(fs) != 0 {
		t.Fatalf("identical reports: expected no findings, got %v", fs)
	}
	fs := Compare(old, report("9.9M", "1µs"), CompareOptions{}) // -1%
	if len(fs) != 1 || fs[0].Severity != SevRegression {
		t.Fatalf("expected one regression at threshold 0, got %v", fs)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := report("10.0M", "1µs")
	new := report("8.0M", "1.5µs") // -20% throughput, +50% p99
	fs := Compare(old, new, CompareOptions{ThresholdPct: 10})
	var reg int
	for _, f := range fs {
		if f.Severity == SevRegression {
			reg++
		}
	}
	if reg != 2 {
		t.Fatalf("expected 2 regressions (ops/s down, p99 up), got %d in %v", reg, fs)
	}
}

func TestCompareFlagsImprovementAndDrift(t *testing.T) {
	old := report("10.0M", "1µs")
	new := report("20.0M", "1µs")
	new.Experiments[0].Tables[0].Rows[0][4] = "60.0%" // share drift
	fs := Compare(old, new, CompareOptions{ThresholdPct: 10})
	var imp, drift int
	for _, f := range fs {
		switch f.Severity {
		case SevImprovement:
			imp++
		case SevDrift:
			drift++
		case SevRegression:
			t.Fatalf("unexpected regression: %v", f)
		}
	}
	if imp != 1 || drift != 1 {
		t.Fatalf("expected 1 improvement + 1 drift, got %d/%d in %v", imp, drift, fs)
	}
}

func TestCompareAllocColumnsTighterThreshold(t *testing.T) {
	mk := func(allocs, bytes string) *Report {
		return &Report{
			Name: "pimload",
			Experiments: []ExperimentResult{{ID: "pimload", Tables: []Table{{
				Title:   "pimload — set workload",
				Columns: []string{"conns", "ops/s", "allocs/op", "B/op"},
				Rows:    [][]string{{"64", "10.0M", allocs, bytes}},
			}}}},
		}
	}
	// +6% allocations: invisible at the 10% timing threshold, but the
	// 5% alloc threshold must flag it — as a regression, because more
	// allocations per op is always the wrong direction.
	old, new := mk("10.00", "512"), mk("10.60", "512")
	fs := Compare(old, new, CompareOptions{ThresholdPct: 10, AllocThresholdPct: 5})
	if len(fs) != 1 || fs[0].Severity != SevRegression || fs[0].Column != "allocs/op" {
		t.Fatalf("expected one allocs/op regression, got %v", fs)
	}
	// Without the override the same delta stays under the gate.
	if fs := Compare(old, new, CompareOptions{ThresholdPct: 10}); len(fs) != 0 {
		t.Fatalf("expected no findings at timing threshold, got %v", fs)
	}
	// Fewer bytes per op beyond threshold is an improvement.
	fs = Compare(mk("10.00", "512"), mk("10.00", "400"), CompareOptions{ThresholdPct: 10, AllocThresholdPct: 5})
	if len(fs) != 1 || fs[0].Severity != SevImprovement || fs[0].Column != "B/op" {
		t.Fatalf("expected one B/op improvement, got %v", fs)
	}
}

func TestCompareStructuralMismatch(t *testing.T) {
	old := report("10.0M", "1µs")
	new := report("10.0M", "1µs")
	new.Experiments[0].ID = "renamed"
	fs := Compare(old, new, CompareOptions{})
	if len(fs) != 2 { // missing + only-in-new
		t.Fatalf("expected 2 structural findings, got %v", fs)
	}
	for _, f := range fs {
		if f.Severity != SevStructure {
			t.Fatalf("expected structure severity, got %v", f)
		}
	}

	diffParams := report("10.0M", "1µs")
	diffParams.Params.Seed = 2
	fs = Compare(old, diffParams, CompareOptions{})
	if len(fs) != 1 || fs[0].Severity != SevStructure {
		t.Fatalf("expected params mismatch finding, got %v", fs)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := report("10.0M", "1µs")
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	a := buf.String()
	got, err := Read(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rep.Name || got.Params != rep.Params ||
		len(got.Experiments) != 1 || got.Experiments[0].Tables[0].Rows[0][2] != "10.0M" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	buf.Reset()
	if err := got.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != a {
		t.Fatal("Write is not stable across a round trip")
	}
}
