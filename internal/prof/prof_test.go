package prof_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"testing"

	"pimds/internal/core/pimhash"
	"pimds/internal/core/pimlist"
	"pimds/internal/core/pimqueue"
	"pimds/internal/core/pimskip"
	"pimds/internal/core/pimstack"
	"pimds/internal/harness"
	"pimds/internal/model"
	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/prof"
	"pimds/internal/sim"
)

// scenario builds one profiled simulation and runs it to completion of
// the measurement window. It returns the engine and total completed
// operations, with the profiler (possibly nil) already attached before
// any client started.
type scenario struct {
	name     string
	kindName func(int) string
	run      func(e *sim.Engine, seed int64) uint64
}

const (
	testWarmup  = 20 * sim.Microsecond
	testMeasure = 150 * sim.Microsecond
)

func scenarios() []scenario {
	return []scenario{
		{"list-naive", pimlist.KindNames.Name, func(e *sim.Engine, seed int64) uint64 {
			return runList(e, seed, false, 4)
		}},
		{"list-combining", pimlist.KindNames.Name, func(e *sim.Engine, seed int64) uint64 {
			return runList(e, seed, true, 16)
		}},
		{"skiplist", pimskip.KindNames.Name, func(e *sim.Engine, seed int64) uint64 {
			s := pimskip.New(e, 1024, 4, 23)
			s.Preload(harness.PreloadKeys(1024))
			for i := 0; i < 8; i++ {
				g := harness.NewGenerator(seed+int64(i), harness.Uniform{N: 1024}, harness.Balanced())
				s.NewClient(g.Stream()).Start()
			}
			c, _ := sim.Measure(e, func() {}, s.Ops(), testWarmup, testMeasure)
			return c
		}},
		{"queue", pimqueue.KindNames.Name, func(e *sim.Engine, seed int64) uint64 {
			return runQueue(e, false)
		}},
		{"queue-blocking", pimqueue.KindNames.Name, func(e *sim.Engine, seed int64) uint64 {
			return runQueue(e, true)
		}},
		{"stack", pimstack.KindNames.Name, func(e *sim.Engine, seed int64) uint64 {
			s := pimstack.New(e, 4, 16)
			var clients []*pimstack.Client
			for i := 0; i < 8; i++ {
				role := pimstack.Pusher
				if i%2 == 1 {
					role = pimstack.Popper
				}
				clients = append(clients, s.NewClient(role))
			}
			c, _ := sim.Measure(e, sim.StartAll(clients), sim.OpsOfClients(clients), testWarmup, testMeasure)
			return c
		}},
		{"hashmap", pimhash.KindNames.Name, func(e *sim.Engine, seed int64) uint64 {
			m := pimhash.New(e, 4)
			kv := map[int64]int64{}
			for k := int64(0); k < 256; k += 2 {
				kv[k] = k
			}
			m.Preload(kv)
			var clients []*sim.Client
			for i := 0; i < 8; i++ {
				g := harness.NewGenerator(seed+int64(i), harness.Uniform{N: 256}, harness.Balanced())
				next := g.Stream()
				clients = append(clients, m.NewClient(func(seq uint64) pimhash.Op {
					o := next(seq)
					switch o.Kind {
					case op.Add:
						return pimhash.Op{Kind: pimhash.MsgPut, Key: o.Key, Val: o.Key}
					case op.Remove:
						return pimhash.Op{Kind: pimhash.MsgDel, Key: o.Key}
					default:
						return pimhash.Op{Kind: pimhash.MsgGet, Key: o.Key}
					}
				}))
			}
			meter := &sim.Meter{Engine: e, Clients: clients}
			c, _ := meter.Run(testWarmup, testMeasure)
			return c
		}},
	}
}

func runList(e *sim.Engine, seed int64, combining bool, p int) uint64 {
	l := pimlist.New(e, combining)
	l.Preload(harness.PreloadKeys(128))
	var clients []*sim.Client
	for i := 0; i < p; i++ {
		g := harness.NewGenerator(seed+int64(i), harness.Uniform{N: 128}, harness.Balanced())
		clients = append(clients, l.NewClient(e, g.Stream()))
	}
	m := &sim.Meter{Engine: e, Clients: clients}
	c, _ := m.Run(testWarmup, testMeasure)
	return c
}

func runQueue(e *sim.Engine, blocking bool) uint64 {
	q := pimqueue.New(e, 4, 16)
	q.BlockingNotify = blocking
	var clients []*pimqueue.Client
	for i := 0; i < 12; i++ {
		role := pimqueue.Enqueuer
		if i%2 == 1 {
			role = pimqueue.Dequeuer
		}
		clients = append(clients, q.NewClient(role))
	}
	c, _ := sim.Measure(e, sim.StartAll(clients), sim.OpsOfClients(clients), testWarmup, testMeasure)
	return c
}

// TestKindNameTables pins each protocol's name table to its kind
// constants: one entry per kind, the last kind named last.
func TestKindNameTables(t *testing.T) {
	for _, c := range []struct {
		names sim.KindNames
		last  int
		want  string
	}{
		{pimlist.KindNames, pimlist.MsgResp, "Resp"},
		{pimskip.KindNames, pimskip.MsgSizeResp, "SizeResp"},
		{pimqueue.KindNames, pimqueue.MsgSplit, "Split"},
		{pimstack.KindNames, pimstack.MsgFindResp, "FindResp"},
		{pimhash.KindNames, pimhash.MsgResp, "Resp"},
	} {
		if len(c.names) != c.last || c.names.Name(c.last) != c.want {
			t.Errorf("table %v: want %d entries ending in %q", c.names, c.last, c.want)
		}
		if got := c.names.Name(c.last + 1); got != fmt.Sprintf("kind_%02d", c.last+1) {
			t.Errorf("kind past the table renders %q", got)
		}
	}
}

func testConfig() sim.Config {
	return sim.ConfigFromParams(model.DefaultParams())
}

// TestBreakdownSumsExactly is the acceptance property: for every
// completed request of every structure, the per-component breakdown
// sums exactly to the request's end-to-end virtual latency.
func TestBreakdownSumsExactly(t *testing.T) {
	for _, sc := range scenarios() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				e := sim.NewEngine(testConfig())
				p := prof.New(e, prof.Options{Structure: sc.name, KindName: sc.kindName})
				checked := 0
				p.OnComplete = func(r *prof.Record) {
					var sum int64
					for _, v := range r.ComponentsPS {
						sum += v
					}
					if sum != r.LatencyPS {
						t.Fatalf("request %d (kind %s, client %d): components sum to %d ps, latency %d ps\n%+v",
							checked, r.Kind, r.Client, sum, r.LatencyPS, r.ComponentsPS)
					}
					checked++
				}
				e.Attach(p)
				completed := sc.run(e, seed)
				if completed == 0 {
					t.Fatal("scenario completed no operations")
				}
				if p.Completed() == 0 {
					t.Fatal("profiler saw no completed requests")
				}
				if checked == 0 {
					t.Fatal("OnComplete never fired")
				}
			})
		}
	}
}

// TestProfilerDoesNotPerturb pins the observational contract: enabling
// the profiler changes simulated results by exactly zero.
func TestProfilerDoesNotPerturb(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			type outcome struct {
				completed uint64
				processed uint64
				now       sim.Time
			}
			run := func(profiled bool) outcome {
				e := sim.NewEngine(testConfig())
				if profiled {
					e.Attach(prof.New(e, prof.Options{Structure: sc.name, KindName: sc.kindName}))
				}
				c := sc.run(e, 1)
				return outcome{completed: c, processed: e.Processed(), now: e.Now()}
			}
			plain, profiled := run(false), run(true)
			if plain != profiled {
				t.Fatalf("profiling perturbed the simulation:\nplain    %+v\nprofiled %+v", plain, profiled)
			}
		})
	}
}

// TestCombiningBatchesObserved asserts the profiler sees combined
// batches on the combining list: requests served in batches > 1 with
// combiner-wait time attributed.
func TestCombiningBatchesObserved(t *testing.T) {
	e := sim.NewEngine(testConfig())
	p := prof.New(e, prof.Options{Structure: "list", KindName: pimlist.KindNames.Name})
	var batched, combinerWait int
	p.OnComplete = func(r *prof.Record) {
		if r.Batch > 1 {
			batched++
		}
		if r.ComponentsPS["combiner_wait"] > 0 {
			combinerWait++
		}
	}
	e.Attach(p)
	if c := runList(e, 1, true, 16); c == 0 {
		t.Fatal("no operations completed")
	}
	if batched == 0 {
		t.Error("no request was attributed to a batch > 1 on the combining list")
	}
	if combinerWait == 0 {
		t.Error("no request accrued combiner_wait time on the combining list")
	}
}

// TestEchoExactComponents pins the attribution of a fully predictable
// request: one client, one echo core that does one vault read and
// replies. Every op must attribute exactly Lpim to memory, 2·Lmessage
// to message, the two send Epsilons to service, and nothing else.
func TestEchoExactComponents(t *testing.T) {
	cfg := sim.DefaultConfig()
	e := sim.NewEngine(cfg)
	p := prof.New(e, prof.Options{Structure: "echo"})
	var records []*prof.Record
	p.OnComplete = func(r *prof.Record) { records = append(records, r) }
	e.Attach(p)

	core := e.NewPIMCore(nil)
	core.SetHandler(func(c *sim.PIMCore, m sim.Message) {
		c.Read()
		c.Send(sim.Message{To: m.From, Kind: 1, OK: true})
	})
	cl := sim.NewClient(e, func(c *sim.CPU, seq uint64) sim.Message {
		return sim.Message{To: core.ID(), Kind: 0, Key: int64(seq)}
	})
	cl.Start()
	e.RunUntil(50 * sim.Microsecond)

	if len(records) == 0 {
		t.Fatal("no requests completed")
	}
	want := map[string]int64{
		"memory":  int64(cfg.Lpim),
		"message": int64(2 * cfg.Lmessage),
	}
	if eps := int64(2 * cfg.Epsilon); eps > 0 {
		want["service"] = eps
	}
	for i, r := range records {
		if len(r.ComponentsPS) != len(want) {
			t.Fatalf("record %d: components %v, want exactly %v", i, r.ComponentsPS, want)
		}
		for k, v := range want {
			if r.ComponentsPS[k] != v {
				t.Fatalf("record %d: component %s = %d ps, want %d (all: %v)",
					i, k, r.ComponentsPS[k], v, r.ComponentsPS)
			}
		}
		if wantLat := int64(cfg.Lpim + 2*cfg.Lmessage + 2*cfg.Epsilon); r.LatencyPS != wantLat {
			t.Fatalf("record %d: latency %d ps, want %d", i, r.LatencyPS, wantLat)
		}
		if r.Batch != 1 || r.Combined {
			t.Fatalf("record %d: batch=%d combined=%v, want 1/false", i, r.Batch, r.Combined)
		}
	}
}

var foldedLine = regexp.MustCompile(`^(memory|message|atomic|queueing|combiner_wait|service);[a-z0-9_-]+;[A-Za-z0-9_]+ \d+$`)

// TestReportAndFoldedOutput smoke-tests the exports: valid JSON with
// sorted keys, well-formed folded stacks, bounded ordered top-N.
func TestReportAndFoldedOutput(t *testing.T) {
	e := sim.NewEngine(testConfig())
	p := prof.New(e, prof.Options{Structure: "list-combining", KindName: pimlist.KindNames.Name, TopN: 7})
	e.Attach(p)
	runList(e, 1, true, 8)

	rep := p.Report()
	if rep.Requests == 0 || rep.TotalPS == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	var sum int64
	for _, v := range rep.ComponentsPS {
		sum += v
	}
	if sum != rep.TotalPS {
		t.Fatalf("report components sum %d != total %d", sum, rep.TotalPS)
	}
	if len(rep.Slowest) == 0 || len(rep.Slowest) > 7 {
		t.Fatalf("slowest has %d entries, want 1..7", len(rep.Slowest))
	}
	for i := 1; i < len(rep.Slowest); i++ {
		if rep.Slowest[i].LatencyPS > rep.Slowest[i-1].LatencyPS {
			t.Fatalf("slowest not sorted: %d ps after %d ps",
				rep.Slowest[i].LatencyPS, rep.Slowest[i-1].LatencyPS)
		}
	}
	var js bytes.Buffer
	if err := p.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}

	var folded bytes.Buffer
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(folded.Bytes()), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("folded output is empty")
	}
	for _, ln := range lines {
		if !foldedLine.Match(ln) {
			t.Fatalf("malformed folded line: %q", ln)
		}
	}
}

// TestSnapshotsDeterministic asserts byte-identical -metrics and
// -profile snapshots across two runs with the same seed (the pimsim
// flag contract).
func TestSnapshotsDeterministic(t *testing.T) {
	type snaps struct{ metrics, profile, folded []byte }
	capture := func(sc scenario, seed int64) snaps {
		e := sim.NewEngine(testConfig())
		reg := obs.NewRegistry()
		e.SetMetrics(reg)
		p := prof.New(e, prof.Options{Structure: sc.name, KindName: sc.kindName})
		e.Attach(p)
		sc.run(e, seed)
		var m, j, f bytes.Buffer
		if err := reg.WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteFolded(&f); err != nil {
			t.Fatal(err)
		}
		return snaps{m.Bytes(), j.Bytes(), f.Bytes()}
	}
	for _, sc := range []string{"list-combining", "queue"} {
		var scen scenario
		for _, s := range scenarios() {
			if s.name == sc {
				scen = s
			}
		}
		t.Run(sc, func(t *testing.T) {
			a, b := capture(scen, 1), capture(scen, 1)
			if !bytes.Equal(a.metrics, b.metrics) {
				t.Error("metrics snapshots differ between identical seeded runs")
			}
			if !bytes.Equal(a.profile, b.profile) {
				t.Error("profile snapshots differ between identical seeded runs")
			}
			if !bytes.Equal(a.folded, b.folded) {
				t.Error("folded flamegraph output differs between identical seeded runs")
			}
		})
	}
}

// TestLatencyMatchesClientHistogram cross-checks the profiler against
// the client-side latency accounting: the profiler's per-request
// latencies, pushed into a histogram, must match the clients'.
func TestLatencyMatchesClientHistogram(t *testing.T) {
	e := sim.NewEngine(testConfig())
	p := prof.New(e, prof.Options{Structure: "list", KindName: pimlist.KindNames.Name})
	mine := &obs.Histogram{}
	p.OnComplete = func(r *prof.Record) { mine.Observe(r.LatencyPS) }
	e.Attach(p)

	l := pimlist.New(e, true)
	l.Preload(harness.PreloadKeys(128))
	agg := &obs.Histogram{}
	var clients []*sim.Client
	for i := 0; i < 8; i++ {
		g := harness.NewGenerator(1+int64(i), harness.Uniform{N: 128}, harness.Balanced())
		cl := l.NewClient(e, g.Stream())
		cl.Latency = agg
		clients = append(clients, cl)
	}
	m := &sim.Meter{Engine: e, Clients: clients}
	m.Run(testWarmup, testMeasure)

	if mine.N() != agg.N() {
		t.Fatalf("profiler saw %d completions, clients recorded %d", mine.N(), agg.N())
	}
	mp50, mp95, mp99 := mine.Percentiles()
	ap50, ap95, ap99 := agg.Percentiles()
	if mp50 != ap50 || mp95 != ap95 || mp99 != ap99 {
		t.Fatalf("latency distributions differ: profiler (%d,%d,%d) vs clients (%d,%d,%d)",
			mp50, mp95, mp99, ap50, ap95, ap99)
	}
}
