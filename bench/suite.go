package main

//pimvet:allow-file determinism: the benchmark measures the host's wall clock by definition; its inputs stay seeded, only timing is physical

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"
)

// summary is one end-to-end metric over a set's repetitions. The
// quartiles are Python's statistics.quantiles(values, n=4), the same
// spread rule the bounds are derived from.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

type workloadReport struct {
	Why           string             `json:"why"`
	EndToEnd      map[string]summary `json:"end_to_end"`
	FramesPerRep  float64            `json:"frames_per_repetition"` // latency samples behind each repetition's percentiles
	PerLayer      map[string]value   `json:"per_layer"`
	SpanFile      string             `json:"span_file"`
	Attempted     uint64             `json:"attempted"`
	Failed        uint64             `json:"failed"`
	FailedOpsFrac float64            `json:"failed_ops_frac"`
	ReplayBatch   float64            `json:"replay_batch"`
}

// agreement is one workload × end-to-end metric of a -sets 2 run.
type agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first_median"`
	Second   float64 `json:"second_median"`
	Gap      float64 `json:"relative_gap"` // how much worse the worse set is, as a share of the better
	Bound    float64 `json:"bound"`
	Spread   float64 `json:"iqr_over_median"` // the wider of the two sets'
	Pass     bool    `json:"pass"`
}

type report struct {
	Host       map[string]any              `json:"host"`
	Seed       int64                       `json:"seed"`
	Sets       []map[string]workloadReport `json:"sets"`
	Agreement  []agreement                 `json:"agreement,omitempty"`
	ExactEqual *bool                       `json:"exact_counts_equal,omitempty"`
}

// exactCounts repeat exactly for one seed; a -sets 2 run checks they do.
// (cds.steps_per_op on list_combine is exact per replay batch size, which
// follows the observed server.batch_mean, so it is compared only when
// both sets replayed at the same batch.)
var exactCounts = []string{"wire.req_bytes_per_op", "wire.resp_bytes_per_op", "cds.steps_per_op"}

// suite runs every workload `sets` times over and writes the report as
// one JSON document to stdout and a table to stderr.
func suite(stdout, stderr io.Writer, seed int64, sets int, d time.Duration) error {
	if d <= 0 {
		d = suiteWindow
	}
	rep := report{Host: hostFingerprint(), Seed: seed}
	for set := 0; set < sets; set++ {
		res, err := runSet(seed, d, suiteLayerRun)
		if err != nil {
			return err
		}
		rep.Sets = append(rep.Sets, res)
		printSet(stderr, set+1, res)
	}
	if sync := rep.Sets[0]["skip_durable"].PerLayer["wal.sync_us"]; sync.Value > 0 {
		rep.Host["wal_sync_us"] = sync.Value
	}
	ok := true
	if sets >= 2 {
		rep.Agreement = agree(rep.Sets[0], rep.Sets[1])
		equal := exactEqual(rep.Sets[0], rep.Sets[1])
		rep.ExactEqual = &equal
		ok = printAgreement(stderr, rep.Agreement, equal)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	for _, set := range rep.Sets {
		for name, wr := range set {
			if wr.Failed > 0 {
				return fmt.Errorf("%s: %d of %d ops failed the result check", name, wr.Failed, wr.Attempted)
			}
		}
	}
	if !ok {
		return fmt.Errorf("the two sets disagree beyond the bounds")
	}
	return nil
}

// runSet is one pass over the whole benchmark: suiteReps end-to-end
// repetitions per workload, round-robin, then one layer run each.
func runSet(seed int64, window, layerWindow time.Duration) (map[string]workloadReport, error) {
	all := map[string]samples{}
	res := map[string]workloadReport{}
	for i := range workloads {
		all[workloads[i].name] = samples{}
	}
	for r := 0; r < suiteReps; r++ {
		for i := range workloads {
			w := &workloads[i]
			s, attempted, failed, err := e2eRun(w, seed+int64(r), 1, window)
			if err != nil {
				return nil, err
			}
			for k, v := range s {
				all[w.name][k] = append(all[w.name][k], v...)
			}
			wr := res[w.name]
			wr.Attempted, wr.Failed = wr.Attempted+attempted, wr.Failed+failed
			res[w.name] = wr
		}
	}
	for i := range workloads {
		w := &workloads[i]
		m, attempted, failed, err := layerRun(w, seed, layerWindow)
		if err != nil {
			return nil, err
		}
		wr := res[w.name]
		wr.Why, wr.SpanFile = w.why, spanFile(w.name)
		wr.Attempted, wr.Failed = wr.Attempted+attempted, wr.Failed+failed
		wr.FailedOpsFrac = float64(wr.Failed) / float64(wr.Attempted)
		wr.FramesPerRep = median(all[w.name]["frames"])
		wr.ReplayBatch = math.Round(m["server.batch_mean"])
		wr.EndToEnd, wr.PerLayer = map[string]summary{}, map[string]value{}
		for _, def := range e2eMetrics {
			wr.EndToEnd[def.name] = summarize(all[w.name][def.name], def.unit)
		}
		for _, def := range layerMetrics {
			wr.PerLayer[def.name] = value{m[def.name], def.unit}
		}
		res[w.name] = wr
	}
	return res, nil
}

func summarize(xs []float64, unit string) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{Unit: unit, Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s), Samples: xs}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quartiles are the first and third of Python's
// statistics.quantiles(sorted, n=4) (the default exclusive method).
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// agree compares two sets' medians, metric by metric, against the
// bounds. The gap is how much worse the worse set reads than the better
// one: either order of the same code must pass.
func agree(a, b map[string]workloadReport) []agreement {
	var out []agreement
	for i := range workloads {
		name := workloads[i].name
		for _, def := range e2eMetrics {
			x, y := a[name].EndToEnd[def.name], b[name].EndToEnd[def.name]
			lo, hi := math.Min(x.Median, y.Median), math.Max(x.Median, y.Median)
			gap := (hi - lo) / lo
			if def.better == "higher" {
				gap = (hi - lo) / hi
			}
			spread := math.Max((x.Q3-x.Q1)/x.Median, (y.Q3-y.Q1)/y.Median)
			out = append(out, agreement{name, def.name, x.Median, y.Median, gap, def.bound, spread, gap <= def.bound})
		}
	}
	return out
}

func exactEqual(a, b map[string]workloadReport) bool {
	equal := true
	for i := range workloads {
		name := workloads[i].name
		for _, metric := range exactCounts {
			if metric == "cds.steps_per_op" && name == "list_combine" && a[name].ReplayBatch != b[name].ReplayBatch {
				continue
			}
			if a[name].PerLayer[metric] != b[name].PerLayer[metric] {
				equal = false
			}
		}
	}
	return equal
}

func printSet(w io.Writer, set int, res map[string]workloadReport) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "set %d\tmetric\tmedian\tq1\tq3\tmin\tmax\tn\tunit\n", set)
	for i := range workloads {
		wr := res[workloads[i].name]
		for _, def := range e2eMetrics {
			s := wr.EndToEnd[def.name]
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%d\t%s\n",
				workloads[i].name, def.name, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N, s.Unit)
		}
		fmt.Fprintf(tw, "%s\tfailed_ops_frac\t%g\t\t\t\t\t%d\tratio\n", workloads[i].name, wr.FailedOpsFrac, wr.Attempted)
	}
	fmt.Fprintf(tw, "\nset %d\tlayer metric", set)
	for i := range workloads {
		fmt.Fprintf(tw, "\t%s", workloads[i].name)
	}
	fmt.Fprintf(tw, "\tunit\n")
	for _, def := range layerMetrics {
		fmt.Fprintf(tw, "\t%s", def.name)
		for i := range workloads {
			fmt.Fprintf(tw, "\t%.5g", res[workloads[i].name].PerLayer[def.name].Value)
		}
		fmt.Fprintf(tw, "\t%s\n", def.unit)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func printAgreement(w io.Writer, rows []agreement, exact bool) bool {
	ok := exact
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "agreement\tmetric\tset 1\tset 2\tgap\tbound\tIQR/median\t\n")
	for _, a := range rows {
		verdict := "PASS"
		if !a.Pass {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.2f%%\t%.0f%%\t%.2f%%\t%s\n",
			a.Workload, a.Metric, a.First, a.Second, 100*a.Gap, 100*a.Bound, 100*a.Spread, verdict)
	}
	fmt.Fprintf(tw, "exact counts identical\t\t\t\t\t\t\t%v\n", exact)
	tw.Flush()
	return ok
}

// hostFingerprint records what a number must never be read without.
func hostFingerprint() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		h["kernel"] = cstr(u.Sysname[:]) + " " + cstr(u.Release[:])
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err == nil {
		var fs syscall.Statfs_t
		if syscall.Statfs(tmpRoot, &fs) == nil {
			h["wal_fs"] = fsName(int64(fs.Type))
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h["commit"] = s.Value
			}
		}
	}
	return h
}

func cstr(b []int8) string {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		if c == 0 {
			break
		}
		out = append(out, byte(c))
	}
	return string(out)
}

// fsName names the common Linux filesystem magics; others print as hex.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
