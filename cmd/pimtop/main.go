// Command pimtop is a live terminal dashboard for a running pimserve:
// it scrapes the ops endpoint's /metrics/history and /healthz and
// renders per-shard throughput, batch sizes, queue depths, latency
// quantiles with sparklines, and the active health alerts — top(1) for
// the flat-combining server.
//
// Usage:
//
//	pimtop -ops http://127.0.0.1:7072             # live, redraw every interval
//	pimtop -ops http://127.0.0.1:7072 -once       # one plain-text frame
//	pimtop -ops http://127.0.0.1:7072 -once -json # machine-readable summary (CI)
//
// The dashboard is read-only and stdlib-only; it renders whatever the
// server's window has retained, so a freshly started server shows
// samples as they accumulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pimds/internal/buildinfo"
	"pimds/internal/obs"
	"pimds/internal/server"
)

// summary is the -json output: one scrape folded into the numbers a
// script wants to assert on.
type summary struct {
	Status    string              `json:"status"`
	Ready     bool                `json:"ready"`
	WindowSeq uint64              `json:"window_seq"`
	Samples   int                 `json:"samples"`
	OpsPerSec float64             `json:"ops_per_sec"`
	P50NS     int64               `json:"p50_ns"`
	P99NS     int64               `json:"p99_ns"`
	ConnsOpen int64               `json:"conns_open"`
	WAL       *walRow             `json:"wal,omitempty"`
	Shards    []shardRow          `json:"shards"`
	Alerts    []server.RuleResult `json:"alerts"`
}

// walRow summarizes the durability pipeline; present only when the
// server runs with a WAL.
type walRow struct {
	RecordsPerSec float64 `json:"records_per_sec"`
	BytesPerSec   float64 `json:"bytes_per_sec"`
	FsyncsPerSec  float64 `json:"fsyncs_per_sec"`
	GroupMean     float64 `json:"group_mean"`
	LagP99NS      int64   `json:"lag_p99_ns"`
	Snapshots     uint64  `json:"snapshots"`
}

type shardRow struct {
	Shard      string  `json:"shard"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	BatchMean  float64 `json:"batch_mean"`
	QueueDepth int64   `json:"queue_depth"`
}

func main() {
	var (
		opsURL   = flag.String("ops", "http://127.0.0.1:7072", "pimserve ops endpoint base URL")
		interval = flag.Duration("interval", time.Second, "refresh interval in live mode")
		once     = flag.Bool("once", false, "render a single frame and exit")
		jsonOut  = flag.Bool("json", false, "with -once, emit a machine-readable summary instead of the dashboard")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Line("pimtop"))
		return
	}

	client := &http.Client{Timeout: 5 * time.Second}
	base := strings.TrimRight(*opsURL, "/")

	if *once {
		hist, hd, err := scrape(client, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimtop:", err)
			os.Exit(1)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(summarize(hist, hd))
			return
		}
		os.Stdout.WriteString(render(hist, hd, base, false))
		return
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	t := time.NewTicker(*interval)
	defer t.Stop()
	for {
		hist, hd, err := scrape(client, base)
		if err != nil {
			os.Stdout.WriteString("\x1b[2J\x1b[H" + "pimtop: " + err.Error() + "\n")
		} else {
			os.Stdout.WriteString(render(hist, hd, base, true))
		}
		select {
		case <-sigs:
			fmt.Println()
			return
		case <-t.C:
		}
	}
}

// scrape fetches one consistent-enough view: history first, then the
// health verdict (the verdict may be one rotation newer; both carry
// their own seq).
func scrape(client *http.Client, base string) (*obs.History, *server.HealthStatus, error) {
	var hist obs.History
	if err := getJSON(client, base+"/metrics/history", &hist); err != nil {
		return nil, nil, err
	}
	var hd server.HealthStatus
	// /healthz answers 503 while draining or failing; the body is still
	// the document, so decode regardless of status.
	if err := getJSON(client, base+"/healthz", &hd); err != nil {
		return nil, nil, err
	}
	return &hist, &hd, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: %v", url, err)
	}
	return nil
}

// rate converts a per-interval delta into a per-second rate.
func rate(delta uint64, durNS int64) float64 {
	if durNS <= 0 {
		return 0
	}
	return float64(delta) / (float64(durNS) / 1e9)
}

// summarize folds the latest window sample into the -json doc.
func summarize(hist *obs.History, hd *server.HealthStatus) summary {
	s := summary{
		Status: hd.Status, Ready: hd.Ready, WindowSeq: hd.WindowSeq,
		Samples: len(hist.Samples), Shards: []shardRow{}, Alerts: alerts(hd),
	}
	latest := hist.Latest()
	if latest == nil {
		return s
	}
	s.OpsPerSec = rate(latest.Counters["server/ops/total"], latest.DurNS)
	if hs, ok := latest.Histograms["server/op_latency_ns"]; ok {
		s.P50NS, s.P99NS = hs.P50, hs.P99
	}
	s.ConnsOpen = latest.Gauges["server/conns/open"]
	s.WAL = walSummary(latest)
	for _, name := range sortedKeys(latest.Histograms) {
		shard, ok := server.ShardOf(name, "batch_size")
		if !ok {
			continue
		}
		row := shardRow{Shard: shard, BatchMean: latest.Histograms[name].Mean}
		row.OpsPerSec = rate(latest.Counters["server/shard/"+shard+"/combines"], latest.DurNS) * row.BatchMean
		row.QueueDepth = latest.Gauges["server/shard/"+shard+"/queue_depth"]
		s.Shards = append(s.Shards, row)
	}
	return s
}

// walSummary folds the WAL metrics out of one sample, or nil when the
// server runs without durability (the counters are registered only
// when a WAL is configured).
func walSummary(latest *obs.WindowSample) *walRow {
	records, ok := latest.Counters["server/wal/records"]
	if !ok {
		return nil
	}
	w := &walRow{
		RecordsPerSec: rate(records, latest.DurNS),
		BytesPerSec:   rate(latest.Counters["server/wal/bytes"], latest.DurNS),
		FsyncsPerSec:  rate(latest.Counters["server/wal/fsyncs"], latest.DurNS),
		Snapshots:     latest.Counters["server/wal/snapshots"],
	}
	if hs, ok := latest.Histograms["server/wal/group"]; ok {
		w.GroupMean = hs.Mean
	}
	if hs, ok := latest.Histograms["server/wal/lag_ns"]; ok {
		w.LagP99NS = hs.P99
	}
	return w
}

// alerts returns the rules that are not ok.
func alerts(hd *server.HealthStatus) []server.RuleResult {
	out := []server.RuleResult{}
	for _, r := range hd.Rules {
		if r.State != "ok" {
			out = append(out, r)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark renders values as a fixed-width sparkline scaled to their max.
func spark(vals []float64) string {
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// ns formats a nanosecond latency humanely.
func ns(v int64) string {
	return time.Duration(v).Truncate(time.Microsecond).String()
}

// render draws one dashboard frame. live prepends the ANSI
// clear-screen so the frame repaints in place.
func render(hist *obs.History, hd *server.HealthStatus, base string, live bool) string {
	var b strings.Builder
	if live {
		b.WriteString("\x1b[2J\x1b[H")
	}
	fmt.Fprintf(&b, "pimtop — %s   status: %s   ready: %v   window seq: %d\n",
		base, hd.Status, hd.Ready, hd.WindowSeq)

	latest := hist.Latest()
	if latest == nil {
		b.WriteString("\n  no window samples yet (is -window-tick enabled on the server?)\n")
		return b.String()
	}
	sum := summarize(hist, hd)

	var opsRates, p99s []float64
	for i := range hist.Samples {
		s := &hist.Samples[i]
		opsRates = append(opsRates, rate(s.Counters["server/ops/total"], s.DurNS))
		p99s = append(p99s, float64(s.Histograms["server/op_latency_ns"].P99))
	}
	lat := latest.Histograms["server/op_latency_ns"]
	fmt.Fprintf(&b, "\n  ops/s %10.0f  %s\n", opsRates[len(opsRates)-1], spark(opsRates))
	fmt.Fprintf(&b, "  p99   %10s  %s   (p50 %s, max %s)\n",
		ns(lat.P99), spark(p99s), ns(lat.P50), ns(lat.Max))
	fmt.Fprintf(&b, "  conns %10d   frames in/out %0.f/%.0f per s\n",
		latest.Gauges["server/conns/open"],
		rate(latest.Counters["server/frames/in"], latest.DurNS),
		rate(latest.Counters["server/frames/out"], latest.DurNS))
	if w := sum.WAL; w != nil {
		fmt.Fprintf(&b, "  wal   %10.0f rec/s  %.0f fsync/s  group %.1f  ack lag p99 %s  snaps %d\n",
			w.RecordsPerSec, w.FsyncsPerSec, w.GroupMean, ns(w.LagP99NS), w.Snapshots)
	}

	b.WriteString("\n  shard     ops/s   batch   queue\n")
	for _, r := range sum.Shards {
		fmt.Fprintf(&b, "  %-5s %9.0f  %6.1f  %6d\n", r.Shard, r.OpsPerSec, r.BatchMean, r.QueueDepth)
	}

	if len(sum.Alerts) == 0 {
		fmt.Fprintf(&b, "\n  alerts: none (%d rules ok)\n", len(hd.Rules))
	} else {
		b.WriteString("\n  alerts:\n")
		for _, r := range sum.Alerts {
			fmt.Fprintf(&b, "   [%s] %s: %s\n", strings.ToUpper(r.State), r.Rule, r.Reason)
		}
	}
	return b.String()
}
