// Command bench is the repository's wall-clock benchmark: it drives an
// in-process flat-combining server over loopback from its own verifying
// closed-loop client and reports end-to-end metrics plus a per-layer
// decomposition. See README.md in this directory.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one workload, one result line
//	bench [-seed N] [-sets 2]                         every workload, full report
package main

//pimvet:allow-file determinism: the benchmark measures the host's wall clock by definition; its inputs stay seeded, only timing is physical

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"
)

func main() {
	name := flag.String("workload", "", "run one workload and print one result line (default: the whole suite)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 0, "seconds measured: of the run with -workload (default 20), of each repetition without (default 4)")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	sets := flag.Int("sets", 1, "without -workload: run the suite this many times and check the sets agree within the bounds")
	flag.Parse()

	var err error
	if *name == "" {
		err = suite(os.Stdout, os.Stderr, *seed, *sets, time.Duration(*seconds)*time.Second)
	} else {
		err = single(os.Stdout, os.Stderr, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// Run shape. How a server's goroutines happen to settle on the two cores
// moves its numbers (one-second windows on one hash_point server range
// from 1.3 to 3 M ops/s) and the host drifts over minutes, so every
// measurement is a median over repetitions that each build a fresh
// server, preload it, warm it and time one window. One result line
// (-workload) cuts its seconds into lineReps windows; the suite runs
// suiteReps repetitions per workload, interleaved across workloads so
// host drift lands on all of them equally, then a layer run whose two
// windows get 3 s each.
const (
	lineReps      = 8
	suiteReps     = 5
	suiteWindow   = 4 * time.Second
	suiteLayerRun = 9 * time.Second
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a -workload run's standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// single runs one workload and prints its result line: the end-to-end
// metrics, or with trace the per-layer ones.
func single(stdout, stderr io.Writer, name string, seed int64, d time.Duration, trace bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if d <= 0 {
		d = 20 * time.Second
	}
	line := resultLine{Metrics: map[string]value{}}
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
		m, attempted, failed, err := layerRun(w, seed, d)
		if err != nil {
			return err
		}
		line.Attempted, line.Failed = attempted, failed
		for _, def := range defs {
			line.Metrics[def.name] = value{m[def.name], def.unit}
		}
	} else {
		s, attempted, failed, err := e2eRun(w, seed, lineReps, d/lineReps)
		if err != nil {
			return err
		}
		line.Attempted, line.Failed = attempted, failed
		for _, def := range defs {
			line.Metrics[def.name] = value{median(s[def.name]), def.unit}
			fmt.Fprintf(stderr, "%s %s samples: %.5g\n", w.name, def.name, s[def.name])
		}
	}
	line.Correct = line.Failed == 0
	tw := tabwriter.NewWriter(stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tseed %d\t%d ops\t%d failed\n", w.name, seed, line.Attempted, line.Failed)
	for _, def := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", def.name, line.Metrics[def.name].Value, def.unit)
	}
	tw.Flush()
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d ops failed the result check", w.name, line.Failed, line.Attempted)
	}
	return nil
}

// samples holds, per end-to-end metric, one value per repetition.
type samples map[string][]float64

// e2eRun is the end-to-end half of the benchmark for one workload, with
// tracing off: reps times over, a fresh server is set up (setup_s),
// warmed, driven for one timed window of length d and checked against
// the oracle.
func e2eRun(w *workload, seed int64, reps int, d time.Duration) (s samples, attempted, failed uint64, err error) {
	s = samples{}
	for i := 0; i < reps; i++ {
		var wd *window
		o, err := measure(w, seed+int64(i)*7919, nil, d, func(r *rig) (err error) {
			wd, err = r.run(d, false)
			return err
		})
		attempted, failed = attempted+o.attempted, failed+o.failed
		if err != nil {
			return nil, attempted, failed, err
		}
		s["setup_s"] = append(s["setup_s"], o.setup.Seconds())
		s["ops_per_s"] = append(s["ops_per_s"], wd.opsPerSec())
		s["frame_p50_us"] = append(s["frame_p50_us"], wd.latUs(0.50))
		s["frame_p95_us"] = append(s["frame_p95_us"], wd.latUs(0.95))
		s["cpu_us_per_op"] = append(s["cpu_us_per_op"], wd.cpuUsPerOp())
		s["frames"] = append(s["frames"], float64(len(wd.lat)))
	}
	return s, attempted, failed, nil
}
