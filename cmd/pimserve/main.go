// Command pimserve serves one of the repo's data structures over TCP
// using the wire protocol, with flat-combining request batching: one
// combiner goroutine per shard executes whole batches of client
// operations against a sequential structure (see DESIGN.md, "Flat
// combining as a server architecture").
//
// Usage:
//
//	pimserve -structure skip -shards 8 -addr :7070 -ops-addr :7072
//	pimserve -structure queue -addr :7070
//	pimserve -structure hash -wal-dir /var/lib/pimserve -fsync batch
//
// On SIGINT/SIGTERM the server drains: queued operations execute,
// their responses flush, then connections close and the process exits
// 0 with a summary on stderr. Acknowledged operations are never lost.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pimds/internal/buildinfo"
	"pimds/internal/obs"
	"pimds/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "TCP listen address")
		structure   = flag.String("structure", "skip", "data structure: list|skip|hash|queue|stack")
		shards      = flag.Int("shards", 8, "combiner shards (sets are range-partitioned; queue/stack require 1)")
		keySpace    = flag.Int64("keyspace", 1<<16, "exclusive key bound for set structures")
		queueDepth  = flag.Int("queue-depth", 1024, "per-shard publication queue capacity in (frame, shard) slots; also sizes each connection's max(2, n/16) frame records (backpressure bound)")
		idleTimeout = flag.Duration("idle-timeout", 0, "close connections idle this long (0 = never)")
		writeTO     = flag.Duration("write-timeout", 30*time.Second, "per-frame write deadline to slow clients")
		opsAddr     = flag.String("ops-addr", "", "HTTP ops endpoint: /metrics.json, /metrics/history, /healthz, /buildinfo, /slow, /trace, /debug/pprof (empty = off)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of request frames to trace (0 = only client-requested)")
		traceRing   = flag.Int("trace-ring", 256, "finished spans retained per shard for /trace")
		slowThresh  = flag.Duration("slow-threshold", 0, "log sampled requests at least this slow to /slow (0 = off)")
		windowTick  = flag.Duration("window-tick", time.Second, "windowed-metrics rotation interval for /metrics/history and /healthz (0 = off)")
		walDir      = flag.String("wal-dir", "", "directory for the write-ahead log and snapshots (empty = no durability)")
		fsync       = flag.String("fsync", server.FsyncBatch, "WAL fsync policy: batch (per writer pass, group commit)|off (OS page cache only)")
		snapEvery   = flag.Duration("snapshot-every", 10*time.Second, "interval between snapshots that truncate the WAL (0 = only on clean shutdown)")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Line("pimserve"))
		return
	}

	if (*structure == server.StructQueue || *structure == server.StructStack) && *shards > 1 {
		fmt.Fprintf(os.Stderr, "pimserve: %s is inherently serial; forcing -shards 1 (was %d)\n", *structure, *shards)
		*shards = 1
	}

	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Structure:     *structure,
		Shards:        *shards,
		KeySpace:      *keySpace,
		QueueDepth:    *queueDepth,
		IdleTimeout:   *idleTimeout,
		WriteTimeout:  *writeTO,
		Reg:           reg,
		TraceSample:   *traceSample,
		TraceRing:     *traceRing,
		SlowThreshold: *slowThresh,
		WindowTick:    *windowTick,
		WALDir:        *walDir,
		Fsync:         *fsync,
		SnapshotEvery: *snapEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pimserve: serving %s (%d shards, keyspace %d) on %s\n",
		*structure, *shards, *keySpace, ln.Addr())
	if *walDir != "" {
		fmt.Fprintf(os.Stderr, "pimserve: durable (wal-dir %s, fsync %s, snapshot every %v)\n",
			*walDir, *fsync, *snapEvery)
	}

	if *opsAddr != "" {
		oln, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pimserve: ops endpoint on http://%s/metrics.json\n", oln.Addr())
		go func() {
			// Ignore the error on shutdown: the process is exiting.
			http.Serve(oln, srv.OpsHandler())
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "pimserve: %v — draining\n", sig)
		srv.Shutdown()
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	snap := reg.Snapshot()
	fmt.Fprintf(os.Stderr, "pimserve: drained cleanly; served %d ops over %d connections (%d rejected)\n",
		snap.Counters["server/ops/total"], snap.Counters["server/conns/total"], snap.Counters["server/ops/rejected"])
}
