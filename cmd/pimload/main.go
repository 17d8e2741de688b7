// Command pimload generates network load against a pimserve instance
// and reports throughput and client-observed latency percentiles.
//
// Usage:
//
//	pimload -addr 127.0.0.1:7070 -conns 64 -pipeline 16 -duration 5s
//	pimload -addr 127.0.0.1:7070 -dist zipf:1.3 -mix 90/5/5 -slo-p99 5ms
//	pimload -addr 127.0.0.1:7070 -structure queue -rate 200000
//
// By default it runs closed-loop (each connection keeps -pipeline ops
// outstanding); -rate switches to open-loop injection at a fixed total
// ops/s. It prints one summary line (plus scan and SLO lines when they
// apply) that CI greps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pimds/internal/buildinfo"
	"pimds/internal/harness"
	"pimds/internal/loadgen"
	"pimds/internal/op"
	"pimds/internal/server"
	"pimds/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "pimserve TCP address")
		structure = flag.String("structure", "set", "op family (set|queue|stack) or the server's exact structure (list|skip|hash|queue|stack) for mix validation")
		conns     = flag.Int("conns", 64, "concurrent connections")
		pipeline  = flag.Int("pipeline", 16, "ops outstanding per connection")
		rate      = flag.Float64("rate", 0, "open-loop target ops/s across all conns (0 = closed loop)")
		duration  = flag.Duration("duration", 5*time.Second, "injection duration")
		keys      = flag.Int64("keys", 1<<16, "key space (must be within the server's -keyspace)")
		dist      = flag.String("dist", "uniform", "key distribution: uniform | zipf[:S] | hot[:H/F]")
		mixSpec   = flag.String("mix", "0/50/50", "set mix C/A/R in percent, plus ordered terms, e.g. 60/15/15,scan:8,popmin:2")
		scanSpan  = flag.Int64("scan-span", 0, "key width of generated range scans (0 = 1/64 of the key space)")
		scanLimit = flag.Int("scan-limit", 0, "per-scan result cap sent on the wire (0 = server max)")
		seed      = flag.Int64("seed", 1, "key-stream seed")
		preload   = flag.Bool("preload", false, "fill the set to half occupancy before measuring")
		traceSamp = flag.Float64("trace-sample", 0, "fraction of request frames sent with trace context (server records spans for them)")
		sloP99    = flag.Duration("slo-p99", 0, "p99 latency budget; prints an SLO verdict and burn rate (0 = off)")
		sloStrict = flag.Bool("slo-strict", false, "exit 3 when the SLO verdict is FAIL")
		healthURL = flag.String("health", "", "pimserve /healthz URL to cite next to the client-side verdict (empty = off)")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Line("pimload"))
		return
	}

	if *scanLimit < 0 || *scanLimit > wire.MaxScanLimit {
		// Catch it here rather than as a stream of rejected frames: the
		// limit rides in every scan op and the server drops violators.
		fmt.Fprintf(os.Stderr, "pimload: -scan-limit %d out of range (wire protocol caps scans at %d results; 0 = server max)\n",
			*scanLimit, wire.MaxScanLimit)
		os.Exit(2)
	}

	kd, err := harness.ParseKeyDist(*dist, *keys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mix, err := harness.ParseMix(*mixSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimload: bad -mix %q: %v (want C/A/R plus optional ordered terms, e.g. 60/15/15,scan:8,popmin:2)\n", *mixSpec, err)
		os.Exit(2)
	}
	family, err := resolveStructure(*structure, mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := loadgen.Config{
		Addr:        *addr,
		Structure:   family,
		Conns:       *conns,
		Pipeline:    *pipeline,
		Rate:        *rate,
		Duration:    *duration,
		Dist:        kd,
		Mix:         mix,
		Seed:        *seed,
		ScanSpan:    *scanSpan,
		ScanLimit:   *scanLimit,
		TraceSample: *traceSamp,
		SLOP99:      *sloP99,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pimload:", err)
		os.Exit(2)
	}
	if *preload {
		if err := loadgen.Preload(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(res)

	if *healthURL != "" {
		// The client-side SLO verdict cites the server's own view: the
		// /healthz verdict covers the load window just generated.
		if line, err := scrapeHealth(*healthURL); err != nil {
			fmt.Fprintf(os.Stderr, "pimload: health scrape: %v\n", err)
		} else {
			fmt.Println("server health:", line)
		}
	}

	if slo, ok := res.SLO(); ok && !slo.Met && *sloStrict {
		os.Exit(3)
	}
}

// resolveStructure maps -structure to the loadgen op family. The
// generic family names (set|queue|stack) pass through unvalidated; an
// exact server structure name is checked against its capability table
// so a mix the server would reject fails here with a useful message
// instead of as a stream of StatusBadKind responses.
func resolveStructure(structure string, mix harness.Mix) (string, error) {
	if structure == loadgen.StructSet {
		// "set" is the generic family — the exact structure (and so the
		// capability row) is unknown, the server does the gating.
		return structure, nil
	}
	caps, ok := server.LookupCapability(structure)
	if !ok {
		return "", fmt.Errorf("pimload: unknown -structure %q (want set|queue|stack or %s)",
			structure, strings.Join(server.Structures(), "|"))
	}
	for _, t := range []struct {
		pct  int
		kind op.Kind
	}{
		{mix.ScanPct, op.RangeScan},
		{mix.PredPct, op.Pred},
		{mix.SuccPct, op.Succ},
		{mix.PopMinPct, op.PopMin},
		{mix.PopMaxPct, op.PopMax},
	} {
		if t.pct > 0 && !caps.Supports(t.kind) {
			return "", fmt.Errorf("pimload: structure %q does not serve %s (supported ops: %s)",
				structure, t.kind, caps.KindNames())
		}
	}
	switch structure {
	case server.StructQueue:
		return loadgen.StructQueue, nil
	case server.StructStack:
		return loadgen.StructStack, nil
	default:
		return loadgen.StructSet, nil
	}
}

// scrapeHealth fetches a /healthz document and folds it to one line:
// the status plus any non-ok rules.
func scrapeHealth(url string) (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
		Rules  []struct {
			Rule   string `json:"rule"`
			State  string `json:"state"`
			Reason string `json:"reason"`
		} `json:"rules"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc); err != nil {
		return "", err
	}
	line := doc.Status
	for _, r := range doc.Rules {
		if r.State != "ok" {
			line += fmt.Sprintf("; [%s] %s: %s", r.State, r.Rule, r.Reason)
		}
	}
	return line, nil
}
