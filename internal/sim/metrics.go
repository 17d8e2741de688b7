package sim

import (
	"fmt"
	"sort"

	"pimds/internal/obs"
)

// simMetrics is the observer SetMetrics attaches. All instrumentation
// is observational: nothing here touches virtual time, so an engine
// with metrics enabled produces bit-identical simulation results to one
// without (see TestMetricsDoNotPerturb).
//
// Hot-path events (message sends, queue depths, request latencies)
// record as they happen; cheap-to-read aggregate state (vault counters,
// core busy time, channel totals) is exported by a snapshot-time
// collector instead, so the simulation loop pays nothing for it.
type simMetrics struct {
	eng      *Engine
	sent     map[int]*obs.Counter   // messages sent, per protocol kind
	lat      map[int]*obs.Histogram // inject→reply latency, per request kind
	queueMax map[CoreID]*obs.Gauge  // deepest inbox seen, per core
}

// SetMetrics installs a metrics registry. The engine registers a
// snapshot-time collector exporting per-core busy time, per-vault
// access counts and utilization, and per-channel message totals, and
// attaches an observer that records hot-path events into reg as they
// happen. Install the registry before building data structures on the
// engine: structures capture the registry at construction time.
func (e *Engine) SetMetrics(reg *obs.Registry) {
	e.reg = reg
	e.Attach(&simMetrics{
		eng:      e,
		sent:     make(map[int]*obs.Counter),
		lat:      make(map[int]*obs.Histogram),
		queueMax: make(map[CoreID]*obs.Gauge),
	})
	reg.AddCollector(e.collectMetrics)
}

// Metrics returns the installed registry, or nil when metrics are
// disabled. Structures use it to create their own metrics; through a
// nil registry every obs getter returns a nil (no-op) metric.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// SetKindNamer installs a protocol kind → symbolic name mapping used in
// metric names and Chrome trace events (nil falls back to "kind_NN").
// A protocol installs its table's Name method.
func (e *Engine) SetKindNamer(fn func(kind int) string) { e.kindName = fn }

// KindName renders a protocol kind tag using the installed namer.
func (e *Engine) KindName(kind int) string {
	if e.kindName != nil {
		return e.kindName(kind)
	}
	return KindNames(nil).Name(kind)
}

// KindNames is a protocol's message-kind name table. Every protocol
// declares its kinds as contiguous iota + 1 constants, so entry i
// names kind i+1.
type KindNames []string

// Name renders kind symbolically, or as "kind_NN" outside the table.
func (n KindNames) Name(kind int) string {
	if kind >= 1 && kind <= len(n) {
		return n[kind-1]
	}
	return fmt.Sprintf("kind_%02d", kind)
}

// Observe implements Observer: it counts sent messages per kind, tracks
// the high watermark of each core's inbox, and records each closed-loop
// operation's latency (issue to completion, in picoseconds) under its
// request kind.
func (m *simMetrics) Observe(ev Event) {
	reg := m.eng.reg
	switch ev.Kind {
	case EventSend:
		c := m.sent[ev.Msg.Kind]
		if c == nil {
			c = reg.Counter("msg/sent/" + m.eng.KindName(ev.Msg.Kind))
			m.sent[ev.Msg.Kind] = c
		}
		c.Inc()
	case EventDeliver:
		g := m.queueMax[ev.Core]
		if g == nil {
			g = reg.Gauge(fmt.Sprintf("core/%03d/queue_max", ev.Core))
			m.queueMax[ev.Core] = g
		}
		g.SetMax(int64(ev.Depth))
	case EventOpEnd:
		h := m.lat[ev.Msg.Kind]
		if h == nil {
			h = reg.Histogram("latency/" + m.eng.KindName(ev.Msg.Kind))
			m.lat[ev.Msg.Kind] = h
		}
		h.Observe(int64(ev.Dur))
	}
}

// collectMetrics exports engine, core, vault and channel state into the
// registry; it runs at every Registry.Snapshot.
func (e *Engine) collectMetrics(r *obs.Registry) {
	r.Gauge("engine/now_ps").Set(int64(e.now))
	r.Gauge("engine/events_processed").Set(int64(e.processed))

	ids := make([]CoreID, 0, len(e.endpoints))
	for id := range e.endpoints {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	elapsed := float64(e.now)
	for _, id := range ids {
		switch c := e.endpoints[id].(type) {
		case *PIMCore:
			pre := fmt.Sprintf("core/%03d/", id)
			r.Gauge(pre + "busy_ps").Set(int64(c.Stats.Busy))
			r.Gauge(pre + "ops").Set(int64(c.Stats.Ops))
			r.Gauge(pre + "messages").Set(int64(c.Stats.Messages))
			r.Gauge(pre + "queue_len").Set(int64(c.QueueLen()))
			v := c.Vault()
			vp := fmt.Sprintf("vault/%03d/", v.ID())
			r.Gauge(vp + "reads").Set(int64(v.Reads))
			r.Gauge(vp + "writes").Set(int64(v.Writes))
			r.Gauge(vp + "allocs").Set(int64(v.Allocs))
			r.Gauge(vp + "frees").Set(int64(v.Frees))
			r.Gauge(vp + "live_nodes").Set(v.LiveNodes)
			r.Gauge(vp + "busy_ps").Set(int64(c.Stats.Busy))
			if elapsed > 0 {
				r.FloatGauge(vp + "utilization").Set(float64(c.Stats.Busy) / elapsed)
			}
		case *CPU:
			pre := fmt.Sprintf("cpu/%03d/", id)
			r.Gauge(pre + "busy_ps").Set(int64(c.Stats.Busy))
			r.Gauge(pre + "ops").Set(int64(c.Stats.Ops))
			r.Gauge(pre + "messages").Set(int64(c.Stats.Messages))
			if elapsed > 0 {
				r.FloatGauge(pre + "utilization").Set(float64(c.Stats.Busy) / elapsed)
			}
		}
	}

	keys := make([]channelKey, 0, len(e.channels))
	for k := range e.channels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		r.Gauge(fmt.Sprintf("channel/%03d-%03d/sent", k.from, k.to)).
			Set(int64(e.channels[k].sent))
	}
}
