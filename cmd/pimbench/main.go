// Command pimbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	pimbench -list
//	pimbench -exp fig2 [-format csv] [-quick]
//	pimbench -exp fig2,latency -quick -seed 1
//	pimbench -exp all -r1 3 -r2 3 -r3 1
//	pimbench -exp fig4-host -dist zipf:1.3
//
// pimbench is the one entry point to the evaluation. Host experiments
// (every id ending in -host) measure the real goroutine
// implementations on this machine; every other experiment runs in
// virtual time and is deterministic: BENCH_SIM.txt is this command's
// output for every simulator experiment at -quick -seed 1, and
// TestSimulatorBaseline holds it byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"pimds/internal/buildinfo"
	"pimds/internal/harness"
	"pimds/internal/model"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command with its arguments and output streams
// passed in, so TestSimulatorBaseline checks exactly what pimbench
// prints. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID   = fs.String("exp", "", "experiment id(s) to run, comma-separated, or 'all' (see -list)")
		list    = fs.Bool("list", false, "list available experiments")
		format  = fs.String("format", "table", "output format: table or csv")
		quick   = fs.Bool("quick", false, "smaller sweeps and shorter windows")
		r1      = fs.Float64("r1", model.DefaultR1, "Lcpu/Lpim ratio")
		r2      = fs.Float64("r2", model.DefaultR2, "Lcpu/Lllc ratio")
		r3      = fs.Float64("r3", model.DefaultR3, "Latomic/Lcpu ratio")
		lcpu    = fs.Duration("lcpu", model.DefaultLcpu, "absolute CPU memory latency")
		threads = fs.Int("host-threads", runtime.GOMAXPROCS(0)*4, "max threads for host experiments")
		hostDur = fs.Duration("host-measure", 300*time.Millisecond, "host measurement window per point")
		seed    = fs.Int64("seed", 0, "workload seed for simulator experiments (0 = historical streams)")
		dist    = fs.String("dist", "uniform", "key distribution for host set experiments: uniform | zipf[:S] | hot[:H/F]")
		version = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Line("pimbench"))
		return 0
	}

	if *list || *expID == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "  %-16s %s\n", e.ID, e.Description)
		}
		if *expID == "" && !*list {
			return 2
		}
		return 0
	}

	opts := harness.Options{
		Params:      model.Params{Lcpu: *lcpu, R1: *r1, R2: *r2, R3: *r3},
		Quick:       *quick,
		HostThreads: *threads,
		HostMeasure: *hostDur,
		Seed:        *seed,
		Dist:        *dist,
	}
	if err := opts.Params.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Validate -dist up front (experiments resolve it per key space).
	if _, err := harness.ParseKeyDist(*dist, 1<<16); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var exps []harness.Experiment
	if *expID == "all" {
		exps = harness.Experiments()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			e, ok := harness.FindExperiment(id)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", id)
				return 2
			}
			exps = append(exps, e)
		}
		if len(exps) == 0 {
			fmt.Fprintln(stderr, "no experiments selected; use -list")
			return 2
		}
	}
	for _, e := range exps {
		fmt.Fprintf(stdout, "# %s — %s\n", e.ID, e.Description)
		for _, tab := range e.Run(opts) {
			if err := tab.Write(stdout, *format); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return 0
}
