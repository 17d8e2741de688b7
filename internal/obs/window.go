package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Windowed time-series collection. A Window rotates Registry snapshots
// on a fixed cadence into one fixed-size ring and keeps, for every
// interval, the *delta* each metric moved by: counter increments,
// histogram observations recorded within the interval (exact bucket
// subtraction via HistogramSnapshot.Sub), and instantaneous gauge
// values at the interval's close. Cumulative-since-start telemetry
// answers "how much"; the window answers "how fast, right now, and
// trending which way" — the substrate the server's health verdict and
// pimtop read.
//
// The Window never touches the hot path: whoever owns it calls Rotate
// from a dedicated ticker goroutine (in pimserve, rotation is
// ticker-only by convention), and a
// rotation reads the registry exactly the way a /metrics scrape does.
// Nothing here reads a wall clock: samples are identified by rotation
// sequence number and nominal duration, so the history document is a
// pure function of the registry states the window was shown —
// byte-identical JSON for identical rotations.

// WindowSample is one closed interval. Counters hold the per-interval
// increments, Histograms the per-interval observation deltas (summary
// only; quantiles were computed from exact bucket differences before
// compaction), and Gauges/Floats the instantaneous values at the close.
// Seq is the rotation count at the close, so rates derive as
// delta/DurNS without any wall-clock in the document.
type WindowSample struct {
	Seq        uint64                       `json:"seq"`
	DurNS      int64                        `json:"dur_ns"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Floats     map[string]float64           `json:"floats"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// History is the windowed document served at /metrics/history: the
// retained samples, oldest first.
type History struct {
	Seq        uint64         `json:"seq"`         // rotations completed
	IntervalNS int64          `json:"interval_ns"` // nominal width of one sample
	Samples    []WindowSample `json:"samples"`
}

// Latest returns the most recent sample, or nil when none has closed
// yet.
func (h *History) Latest() *WindowSample {
	if len(h.Samples) == 0 {
		return nil
	}
	return &h.Samples[len(h.Samples)-1]
}

// Window rotates registry snapshots into a ring of delta samples. Safe
// for concurrent use: Rotate and History serialize on one mutex
// (rotation is expected from a single ticker goroutine; readers are
// scrapes).
type Window struct {
	reg      *Registry
	interval time.Duration

	mu   sync.Mutex
	seq  uint64
	prev *Snapshot      // cumulative state the next delta subtracts
	ring []WindowSample // capacity = retained samples
	next int            // oldest sample once the ring is full
}

// NewWindow builds a window over reg that retains size samples (size >
// 0) of the nominal width interval; the Window trusts its caller's
// ticker cadence. The registry's state at creation is the baseline the
// first sample subtracts from.
func NewWindow(reg *Registry, interval time.Duration, size int) *Window {
	return &Window{
		reg:      reg,
		interval: interval,
		prev:     reg.Snapshot(),
		ring:     make([]WindowSample, 0, size),
	}
}

// Rotate closes one interval: it snapshots the registry, subtracts the
// previous snapshot into a delta sample and advances the ring. Called
// from the owner's ticker goroutine only — never from request-handling
// or combiner code.
func (w *Window) Rotate() {
	if w == nil {
		return
	}
	snap := w.reg.Snapshot()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	s := deltaSample(w.prev, snap, w.seq, w.interval)
	w.prev = snap
	if len(w.ring) < cap(w.ring) {
		w.ring = append(w.ring, s)
		return
	}
	w.ring[w.next] = s
	w.next = (w.next + 1) % len(w.ring)
}

// deltaSample subtracts prev from cur into one closed sample.
func deltaSample(prev, cur *Snapshot, seq uint64, interval time.Duration) WindowSample {
	s := WindowSample{
		Seq:        seq,
		DurNS:      interval.Nanoseconds(),
		Counters:   make(map[string]uint64, len(cur.Counters)),
		Gauges:     make(map[string]int64, len(cur.Gauges)),
		Floats:     make(map[string]float64, len(cur.Floats)),
		Histograms: make(map[string]HistogramSnapshot, len(cur.Histograms)),
	}
	for name, v := range cur.Counters {
		if p := prev.Counters[name]; v >= p {
			s.Counters[name] = v - p
		} else {
			s.Counters[name] = 0
		}
	}
	for name, v := range cur.Gauges {
		s.Gauges[name] = v
	}
	for name, v := range cur.Floats {
		s.Floats[name] = v
	}
	for name, h := range cur.Histograms {
		// Compact: the ring keeps summaries, not 8 KiB bucket arrays per
		// histogram per sample; the exact quantiles are already baked in.
		s.Histograms[name] = h.Sub(prev.Histograms[name]).Compact()
	}
	return s
}

// Seq returns the number of completed rotations.
func (w *Window) Seq() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// History copies the ring, oldest sample first. Samples are shared
// immutable values; callers must not mutate their maps. A nil window
// yields an empty history.
func (w *Window) History() *History {
	h := &History{}
	if w == nil {
		return h
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	h.Seq = w.seq
	h.IntervalNS = w.interval.Nanoseconds()
	h.Samples = append(append(h.Samples, w.ring[w.next:]...), w.ring[:w.next]...)
	return h
}

// WriteJSON writes the history as indented JSON. encoding/json sorts
// map keys, and samples carry no wall-clock state, so the document is
// byte-identical for identical registry-state sequences.
func (w *Window) WriteJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w.History())
}
