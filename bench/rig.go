package main

//pimvet:allow-file determinism: the benchmark measures the host's wall clock by definition; its inputs stay seeded, only timing is physical

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"pimds/internal/obs"
	"pimds/internal/server"
	"pimds/internal/wire"
)

// rig is one in-process server on a loopback listener with its clients
// connected and the half-occupancy preload in place.
type rig struct {
	w       *workload
	srv     *server.Server
	addr    string     // set once Serve is running
	served  chan error // Serve's return value
	clients []*client
	walDir  string
	epoch   time.Time // just before server.New: the span clock's zero, within a microsecond of the server's own
	setup   time.Duration

	down     sync.Once
	serveErr error
}

// tmpRoot is where WAL directories are made; inside the checkout, so a
// run touches nothing outside it.
var tmpRoot = filepath.Join(".bench_build", "tmp")

func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, prefix)
}

func (w *workload) config(walDir string, reg *obs.Registry) server.Config {
	cfg := server.Config{
		Structure: w.structure, Shards: w.shards, KeySpace: w.keySpace,
		Reg: reg, TraceRing: spanRing,
	}
	if w.durable {
		cfg.WALDir, cfg.Fsync, cfg.SnapshotEvery = walDir, server.FsyncBatch, 0
	}
	return cfg
}

// spanRing is the per-shard finished-span ring of a traced server: the
// most recent ~128 sampled frames' worth of op spans per shard.
const spanRing = 128 * frameOps

// startRig builds a fresh server and brings it to the point where the
// first timed op can be sent; rig.setup is how long that took.
func startRig(w *workload, seed int64, reg *obs.Registry) (*rig, error) {
	r := &rig{w: w, served: make(chan error, 1)}
	if w.durable {
		var err error
		if r.walDir, err = tempDir("wal-"); err != nil {
			return nil, err
		}
	}
	runtime.GC() // the previous rig's garbage is not this one's set-up cost
	r.epoch = time.Now()
	srv, err := server.New(w.config(r.walDir, reg))
	if err != nil {
		os.RemoveAll(r.walDir)
		return nil, err
	}
	r.srv = srv
	if err := r.listen(); err != nil {
		r.stop()
		return nil, err
	}
	for i := 0; i < conns; i++ {
		c := newClient(w, i, conns, seed)
		if reg != nil {
			c.epoch = r.epoch
		}
		r.clients = append(r.clients, c)
	}
	err = r.each(func(c *client) error {
		if err := c.connect(r.addr); err != nil {
			return err
		}
		return c.preload()
	})
	if err != nil {
		r.stop()
		return nil, err
	}
	r.setup = time.Since(r.epoch)
	return r, nil
}

func (r *rig) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.addr = ln.Addr().String()
	go func() { r.served <- r.srv.Serve(ln) }()
	return nil
}

// each runs fn for every client concurrently and returns the first error.
func (r *rig) each(fn func(*client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// window is one timed stretch of closed-loop load.
type window struct {
	ops     uint64
	elapsed time.Duration
	cpu     time.Duration // process user+system CPU
	lat     []int64       // every frame's round trip, sorted
	mallocs uint64
	gcPause time.Duration
}

func (wd *window) opsPerSec() float64  { return float64(wd.ops) / wd.elapsed.Seconds() }
func (wd *window) cpuUsPerOp() float64 { return float64(wd.cpu) / 1e3 / float64(wd.ops) }
func (wd *window) latUs(q float64) float64 {
	return float64(wd.lat[int(q*float64(len(wd.lat)-1))]) / 1e3
}

// run drives every client for d and returns what the window measured.
// The two MemStats reads stop the world, but outside the timed stretch.
func (r *rig) run(d time.Duration, trace bool) (*window, error) {
	for _, c := range r.clients {
		c.lat = c.lat[:0]
	}
	wd := &window{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	err := r.each(func(c *client) error { return c.run(t0.Add(d), trace) })
	wd.elapsed = time.Since(t0)
	wd.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	wd.mallocs = m1.Mallocs - m0.Mallocs
	wd.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, c := range r.clients {
		wd.ops += uint64(len(c.lat)) * frameOps
		wd.lat = append(wd.lat, c.lat...)
	}
	if err != nil {
		return nil, err
	}
	if len(wd.lat) == 0 {
		return nil, fmt.Errorf("%s: no frame completed in %v", r.w.name, d)
	}
	sort.Slice(wd.lat, func(i, j int) bool { return wd.lat[i] < wd.lat[j] })
	return wd, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// outcome is what one rig's life added up to.
type outcome struct {
	attempted, failed uint64 // failed includes keys the final state check missed
	setup             time.Duration
	recoverMS         float64 // durable workloads only
}

// measure brings up a fresh rig, warms it for a window of length d, runs
// fn on it, then drains it and checks its final state against the oracle.
func measure(w *workload, seed int64, reg *obs.Registry, d time.Duration, fn func(*rig) error) (o outcome, err error) {
	r, err := startRig(w, seed, reg)
	if err != nil {
		return o, err
	}
	defer r.stop()
	if _, err := r.run(min(d/4, time.Second), false); err != nil {
		return o, err
	}
	if err := fn(r); err != nil {
		return o, err
	}
	mismatch, recoverMS, err := r.finish()
	o = outcome{setup: r.setup, recoverMS: recoverMS}
	for _, c := range r.clients {
		o.attempted += c.attempted
		o.failed += c.failed
	}
	o.failed += mismatch
	return o, err
}

// shutdown closes the clients and drains the server, once.
func (r *rig) shutdown() error {
	r.down.Do(func() {
		for _, c := range r.clients {
			c.close()
		}
		r.srv.Shutdown()
		if r.addr != "" {
			r.serveErr = <-r.served
		}
	})
	return r.serveErr
}

// stop shuts the rig down and removes its WAL directory. Safe on a
// partly built rig and after finish.
func (r *rig) stop() {
	r.shutdown()
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

// finish drains the server and checks its final state against the
// oracle: Σ ShardLens must equal the keys the clients believe present,
// and a durable server restarted on the same directory must recover that
// same count. The returned count of mismatched keys is added to the
// failed ops. recoverMS is the restart's New → first answered op.
func (r *rig) finish() (mismatch uint64, recoverMS float64, err error) {
	if err := r.shutdown(); err != nil {
		return 0, 0, err
	}
	want := 0
	for _, c := range r.clients {
		want += c.count
	}
	mismatch = absDiff(sum(r.srv.ShardLens()), want)
	if !r.w.durable {
		return mismatch, 0, nil
	}

	t0 := time.Now()
	srv, err := server.New(r.w.config(r.walDir, nil))
	if err != nil {
		return mismatch, 0, err
	}
	// Key 1 belongs to connection 0. Serve recovers before its first
	// Accept, so one answered op proves the restored state is live.
	probe := newClient(r.w, 0, 1, 0)
	probe.begin(1)
	probe.push(wire.Contains, 1)
	probe.want[0] = r.clients[0].has(1)
	again := &rig{w: r.w, srv: srv, served: make(chan error, 1), clients: []*client{probe}}
	defer again.shutdown()
	if err := again.listen(); err != nil {
		return mismatch, 0, err
	}
	if err := probe.connect(again.addr); err != nil {
		return mismatch, 0, err
	}
	if err := probe.roundTrip(wire.TraceContext{}); err != nil {
		return mismatch, 0, err
	}
	recoverMS = float64(time.Since(t0)) / 1e6
	err = again.shutdown()
	return mismatch + absDiff(sum(srv.ShardLens()), want) + probe.failed, recoverMS, err
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return
}

func absDiff(a, b int) uint64 {
	if a > b {
		return uint64(a - b)
	}
	return uint64(b - a)
}
