package harness

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"pimds/internal/model"
	"pimds/internal/op"
)

func TestMixValidate(t *testing.T) {
	if err := Balanced().Validate(); err != nil {
		t.Error(err)
	}
	if err := ReadMostly().Validate(); err != nil {
		t.Error(err)
	}
	if err := (Mix{AddPct: 50, RemovePct: 49}).Validate(); err == nil {
		t.Error("bad mix should fail validation")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(7, Uniform{N: 100}, Balanced())
	b := NewGenerator(7, Uniform{N: 100}, Balanced())
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestGeneratorMixProportions(t *testing.T) {
	g := NewGenerator(11, Uniform{N: 100}, Mix{ContainsPct: 50, AddPct: 30, RemovePct: 20})
	counts := map[op.Kind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	within := func(got, wantPct int) bool {
		want := n * wantPct / 100
		return got > want*9/10 && got < want*11/10
	}
	if !within(counts[op.Contains], 50) || !within(counts[op.Add], 30) || !within(counts[op.Remove], 20) {
		t.Errorf("mix proportions off: %v", counts)
	}
}

func TestKeyDistsStayInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dists := []KeyDist{
		Uniform{N: 64},
		HotRange{N: 64, HotPct: 90, FracPct: 10},
		Zipf{N: 64, S: 1.2},
		rangeDist{lo: 16, hi: 48},
	}
	for _, d := range dists {
		if d.Name() == "" {
			t.Errorf("%T has empty name", d)
		}
		lo := int64(0)
		if rd, ok := d.(rangeDist); ok {
			lo = rd.lo
		}
		for i := 0; i < 5000; i++ {
			k := d.Next(rng)
			if k < lo || k >= d.Space() {
				t.Fatalf("%s produced out-of-range key %d", d.Name(), k)
			}
		}
	}
}

func TestHotRangeIsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := HotRange{N: 1000, HotPct: 90, FracPct: 10}
	hot := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if h.Next(rng) < 100 {
			hot++
		}
	}
	if hot < n*85/100 {
		t.Errorf("only %d/%d keys in hot range, want ≈ 90%%", hot, n)
	}
}

func TestPreloadKeys(t *testing.T) {
	keys := PreloadKeys(10)
	want := []int64{0, 2, 4, 6, 8}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"a", "b"},
	}
	tab.AddRow("x", 1.5e6)
	tab.AddRow(3, "y")

	var text strings.Builder
	if err := tab.Write(&text, "table"); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"== demo ==", "a", "b", "1.5M", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}

	var csv strings.Builder
	if err := tab.Write(&csv, "csv"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "a,b") || !strings.Contains(csv.String(), "x,1.5M") {
		t.Errorf("csv output wrong:\n%s", csv.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		2.5e9:  "2.5G",
		1.25e6: "1.25M",
		50000:  "50K",
		123:    "123",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestHostThroughputCounts(t *testing.T) {
	var sink atomic.Int64
	ops := HostThroughput(2, 10*time.Millisecond, 50*time.Millisecond, func(tid int, rng *rand.Rand) func() {
		return func() { sink.Add(1) }
	})
	// A trivial op runs at many millions per second; just check the
	// loop actually measured something substantial.
	if ops < 1e6 {
		t.Errorf("throughput = %v, expected millions of trivial ops/s", ops)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 15 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := FindExperiment("fig2"); !ok {
		t.Error("fig2 not found")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("bogus id found")
	}
}

// isHost reports whether an experiment measures wall-clock time on the
// host. Every other experiment runs in virtual time and is
// deterministic.
func isHost(e Experiment) bool { return strings.HasSuffix(e.ID, "-host") }

// TestSimExperimentsSmoke runs every simulator experiment in quick mode
// and checks each produces non-empty tables with plausible rows.
func TestSimExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds")
	}
	opts := DefaultOptions()
	opts.Quick = true
	for _, exp := range Experiments() {
		if isHost(exp) {
			continue
		}
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tables := exp.Run(opts)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Errorf("incomplete table %+v", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("row width %d != %d columns in %s", len(row), len(tab.Columns), tab.Title)
					}
				}
			}
		})
	}
}

// TestClaimsHold asserts the boolean columns of the claims experiments
// are all true — the paper's headline conclusions.
func TestClaimsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	opts := DefaultOptions()
	for _, id := range []string{"list-claims", "skip-claims"} {
		exp, _ := FindExperiment(id)
		for _, tab := range exp.Run(opts) {
			for _, row := range tab.Rows {
				if row[len(row)-1] != "true" {
					t.Errorf("%s: claim failed: %v", id, row)
				}
			}
		}
	}
}

// TestSimListMatchesModelProperty: the SimList throughput tracks the
// model across random thread counts for the parallel row.
func TestSimListMatchesModelProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	so := DefaultSimOpts()
	so.Warmup /= 5
	so.Measure /= 5
	f := func(pRaw uint8) bool {
		p := int(pRaw%12) + 1
		got := SimList(so, model.FineGrainedLockList, p, 400).Ops
		want := model.ListFineGrainedLocks(so.Params, model.ListConfig{N: 200, P: p})
		return got > want*0.6 && got < want*1.4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestHostExperimentsSmoke exercises the host-emulation paths with tiny
// windows; it validates table structure, not performance.
func TestHostExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real goroutine workloads")
	}
	opts := DefaultOptions()
	opts.Quick = true
	opts.HostThreads = 2
	opts.HostMeasure = 30 * time.Millisecond
	for _, exp := range Experiments() {
		if !isHost(exp) {
			continue
		}
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			for _, tab := range exp.Run(opts) {
				if len(tab.Rows) == 0 {
					t.Errorf("%s: empty table %q", exp.ID, tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("%s: row width mismatch in %q", exp.ID, tab.Title)
					}
				}
			}
		})
	}
}
