// Command pimsim runs one configurable simulation of a PIM-managed
// data structure and prints throughput plus per-core statistics — the
// interactive companion to cmd/pimbench.
//
// Usage:
//
//	pimsim -structure skiplist -vaults 8 -cpus 16 -keyspace 16384 -measure 5ms
//	pimsim -structure queue -vaults 4 -cpus 12 -threshold 64
//	pimsim -structure list -combining=false -cpus 8
//	pimsim -structure list -cpus 16 -profile - -flame list.folded
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"pimds/internal/buildinfo"
	"pimds/internal/core/pimhash"
	"pimds/internal/core/pimlist"
	"pimds/internal/core/pimqueue"
	"pimds/internal/core/pimskip"
	"pimds/internal/core/pimstack"
	"pimds/internal/harness"
	"pimds/internal/model"
	"pimds/internal/obs"
	"pimds/internal/prof"
	"pimds/internal/sim"
)

func main() {
	var (
		structure = flag.String("structure", "skiplist", "list, skiplist, queue, stack or hashmap")
		vaults    = flag.Int("vaults", 8, "PIM vaults / partitions (skiplist, queue)")
		cpus      = flag.Int("cpus", 16, "client CPU threads")
		keySpace  = flag.Int64("keyspace", 1<<14, "key space (list, skiplist)")
		combining = flag.Bool("combining", true, "combining optimization (list)")
		threshold = flag.Int("threshold", 64, "segment threshold (queue)")
		pipeline  = flag.Bool("pipelining", true, "reply pipelining (queue)")
		warmupD   = flag.Duration("warmup", 0, "virtual warmup (default 500µs)")
		measureD  = flag.Duration("measure", 0, "virtual measurement window (default 5ms)")
		r1        = flag.Float64("r1", model.DefaultR1, "Lcpu/Lpim")
		r2        = flag.Float64("r2", model.DefaultR2, "Lcpu/Lllc")
		r3        = flag.Float64("r3", model.DefaultR3, "Latomic/Lcpu")
		seed      = flag.Int64("seed", 1, "workload seed")
		trace     = flag.Bool("trace", false, "print every message and served request (very verbose; use tiny -measure)")
		traceJSON = flag.String("trace-json", "", "write a Chrome trace-event JSON file (load in chrome://tracing or Perfetto)")
		metrics   = flag.String("metrics", "", "write a metrics snapshot as JSON to this file (\"-\" or /dev/stdout for stdout)")
		profile   = flag.String("profile", "", "write a per-request critical-path attribution report as JSON to this file (\"-\" = stdout)")
		flame     = flag.String("flame", "", "write folded flamegraph stacks (component;structure;kind) to this file (\"-\" = stdout)")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Line("pimsim"))
		return
	}

	pr := model.Params{Lcpu: model.DefaultLcpu, R1: *r1, R2: *r2, R3: *r3}
	if err := pr.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	warmup := 500 * sim.Microsecond
	measure := 5 * sim.Millisecond
	if *warmupD > 0 {
		warmup = sim.FromDuration(*warmupD)
	}
	if *measureD > 0 {
		measure = sim.FromDuration(*measureD)
	}
	e := sim.NewEngine(sim.ConfigFromParams(pr))

	if *trace {
		e.Attach(&sim.WriterTracer{W: os.Stdout})
	}
	var chrome *sim.ChromeTracer
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		chrome = sim.NewChromeTracer(f, e)
		e.Attach(chrome)
	}

	// Install the registry before run* builds the structure: structures
	// capture the registry at construction time.
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		e.SetMetrics(reg)
	}

	// Attach the profiler before any client issues its first request so
	// every request is tracked from injection.
	var profiler *prof.Profiler
	if *profile != "" || *flame != "" {
		profiler = prof.New(e, prof.Options{Structure: *structure})
		e.Attach(profiler)
	}

	cfg := e.Config()
	fmt.Printf("latencies: Lcpu=%v Lpim=%v Lllc=%v Latomic=%v Lmessage=%v\n",
		cfg.Lcpu, cfg.Lpim, cfg.Lllc, cfg.Latomic, cfg.Lmessage)

	switch *structure {
	case "list":
		e.SetKindNamer(pimlist.KindNames.Name)
		runList(e, *cpus, *keySpace, *combining, *seed, warmup, measure)
	case "skiplist":
		e.SetKindNamer(pimskip.KindNames.Name)
		runSkip(e, *vaults, *cpus, *keySpace, *seed, warmup, measure)
	case "queue":
		e.SetKindNamer(pimqueue.KindNames.Name)
		runQueue(e, *vaults, *cpus, *threshold, *pipeline, warmup, measure)
	case "stack":
		e.SetKindNamer(pimstack.KindNames.Name)
		runStack(e, *vaults, *cpus, *threshold, *pipeline, warmup, measure)
	case "hashmap":
		e.SetKindNamer(pimhash.KindNames.Name)
		runHash(e, *vaults, *cpus, *keySpace, *seed, warmup, measure)
	default:
		fmt.Fprintf(os.Stderr, "unknown structure %q (list, skiplist, queue, stack, hashmap)\n", *structure)
		os.Exit(2)
	}

	if chrome != nil {
		if err := chrome.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "trace-json:", err)
			os.Exit(1)
		}
	}
	if reg != nil {
		if err := writeMetrics(reg, *metrics); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
	}
	if profiler != nil {
		if *profile != "" {
			if err := writeTo(*profile, profiler.WriteJSON); err != nil {
				fmt.Fprintln(os.Stderr, "profile:", err)
				os.Exit(1)
			}
		}
		if *flame != "" {
			if err := writeTo(*flame, profiler.WriteFolded); err != nil {
				fmt.Fprintln(os.Stderr, "flame:", err)
				os.Exit(1)
			}
		}
	}
}

// writeTo runs write against path ("-" = stdout).
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics snapshots reg as indented JSON into path ("-" = stdout).
func writeMetrics(reg *obs.Registry, path string) error {
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runList(e *sim.Engine, cpus int, keySpace int64, combining bool, seed int64, warmup, measure sim.Time) {
	l := pimlist.New(e, combining)
	l.Preload(harness.PreloadKeys(keySpace))
	var clients []*sim.Client
	for i := 0; i < cpus; i++ {
		g := harness.NewGenerator(seed+int64(i), harness.Uniform{N: keySpace}, harness.Balanced())
		clients = append(clients, l.NewClient(e, g.Stream()))
	}
	m := &sim.Meter{Engine: e, Clients: clients}
	completed, ops := m.Run(warmup, measure)
	fmt.Printf("pim list: combining=%v cpus=%d size=%d\n", combining, cpus, l.Len())
	fmt.Printf("completed %d ops in %v virtual: %s\n", completed, measure, model.FormatOps(ops))
	fmt.Printf("core: batches=%d served=%d (avg batch %.1f), vault reads=%d writes=%d\n",
		l.Batches, l.Served, float64(l.Served)/float64(max(l.Batches, 1)),
		l.Core().Vault().Reads, l.Core().Vault().Writes)
}

func runSkip(e *sim.Engine, vaults, cpus int, keySpace, seed int64, warmup, measure sim.Time) {
	s := pimskip.New(e, keySpace, vaults, uint64(seed))
	s.Preload(harness.PreloadKeys(keySpace))
	for i := 0; i < cpus; i++ {
		g := harness.NewGenerator(seed+int64(i), harness.Uniform{N: keySpace}, harness.Balanced())
		s.NewClient(g.Stream()).Start()
	}
	completed, ops := sim.Measure(e, func() {}, s.Ops(), warmup, measure)
	fmt.Printf("pim skip-list: vaults=%d cpus=%d size=%d\n", vaults, cpus, s.TotalLen())
	fmt.Printf("completed %d ops in %v virtual: %s\n", completed, measure, model.FormatOps(ops))
	for i, p := range s.Partitions() {
		fmt.Printf("  vault %d: size=%d ops=%d reads=%d busy=%v\n",
			i, p.Len(), p.Core().Stats.Ops, p.Core().Vault().Reads, p.Core().Stats.Busy)
	}
}

func runStack(e *sim.Engine, vaults, cpus, threshold int, pipelining bool, warmup, measure sim.Time) {
	s := pimstack.New(e, vaults, threshold)
	s.Pipelining = pipelining
	var clients []*pimstack.Client
	for i := 0; i < cpus; i++ {
		role := pimstack.Pusher
		if i%2 == 1 {
			role = pimstack.Popper
		}
		clients = append(clients, s.NewClient(role))
	}
	completed, ops := sim.Measure(e, sim.StartAll(clients), sim.OpsOfClients(clients), warmup, measure)
	fmt.Printf("pim stack: vaults=%d cpus=%d threshold=%d pipelining=%v depth=%d\n",
		vaults, cpus, threshold, pipelining, s.Len())
	fmt.Printf("completed %d ops in %v virtual: %s\n", completed, measure, model.FormatOps(ops))
	for i, sc := range s.Cores() {
		fmt.Printf("  core %d: pushes=%d pops=%d overflows=%d reverts=%d\n",
			i, sc.Pushes, sc.Pops, sc.Overflows, sc.Reverts)
	}
}

func runHash(e *sim.Engine, vaults, cpus int, keySpace, seed int64, warmup, measure sim.Time) {
	m := pimhash.New(e, vaults)
	kv := make(map[int64]int64, keySpace/2)
	for k := int64(0); k < keySpace; k += 2 {
		kv[k] = k
	}
	m.Preload(kv)
	var clients []*sim.Client
	for i := 0; i < cpus; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		clients = append(clients, m.NewClient(func(uint64) pimhash.Op {
			k := rng.Int63n(keySpace)
			switch rng.Intn(10) {
			case 0:
				return pimhash.Op{Kind: pimhash.MsgPut, Key: k, Val: k}
			case 1:
				return pimhash.Op{Kind: pimhash.MsgDel, Key: k}
			default:
				return pimhash.Op{Kind: pimhash.MsgGet, Key: k}
			}
		}))
	}
	meter := &sim.Meter{Engine: e, Clients: clients}
	completed, ops := meter.Run(warmup, measure)
	fmt.Printf("pim hash map: vaults=%d cpus=%d size=%d\n", vaults, cpus, m.TotalLen())
	fmt.Printf("completed %d ops in %v virtual: %s\n", completed, measure, model.FormatOps(ops))
	for i, c := range m.Cores() {
		fmt.Printf("  vault %d: ops=%d reads=%d writes=%d\n",
			i, c.Stats.Ops, c.Vault().Reads, c.Vault().Writes)
	}
}

func runQueue(e *sim.Engine, vaults, cpus, threshold int, pipelining bool, warmup, measure sim.Time) {
	q := pimqueue.New(e, vaults, threshold)
	q.Pipelining = pipelining
	var clients []*pimqueue.Client
	for i := 0; i < cpus; i++ {
		role := pimqueue.Enqueuer
		if i%2 == 1 {
			role = pimqueue.Dequeuer
		}
		clients = append(clients, q.NewClient(role))
	}
	completed, ops := sim.Measure(e, sim.StartAll(clients), sim.OpsOfClients(clients), warmup, measure)
	fmt.Printf("pim queue: vaults=%d cpus=%d threshold=%d pipelining=%v len=%d\n",
		vaults, cpus, threshold, pipelining, q.Len())
	fmt.Printf("completed %d ops in %v virtual: %s\n", completed, measure, model.FormatOps(ops))
	for i, qc := range q.Cores() {
		fmt.Printf("  core %d: enq=%d deq=%d handoffs=%d segsMade=%d failed=%d\n",
			i, qc.Enqueues, qc.Dequeues, qc.Handoffs, qc.SegsMade, qc.Failed)
	}
}
