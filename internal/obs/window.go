package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Windowed time-series collection. A Window rotates Registry snapshots
// on a fixed cadence into tiered fixed-size rings and keeps, for every
// interval, the *delta* each metric moved by: counter increments,
// histogram observations recorded within the interval (exact bucket
// subtraction via HistogramSnapshot.Sub), and instantaneous gauge
// values at the interval's close. Cumulative-since-start telemetry
// answers "how much"; the window answers "how fast, right now, and
// trending which way" — the substrate the health engine and pimtop
// read.
//
// The Window never touches the hot path: whoever owns it calls Rotate
// from a dedicated ticker goroutine (in pimserve, rotation is
// ticker-only by convention), and a
// rotation reads the registry exactly the way a /metrics scrape does.
// Nothing here reads a wall clock: samples are identified by rotation
// sequence number and nominal duration, so the history document is a
// pure function of the registry states the window was shown —
// byte-identical JSON for identical rotations.

// Tier describes one retention ring: Size samples of Interval each.
// Interval is nominal — the Window trusts its caller's ticker cadence —
// and every tier's Interval must be a whole multiple of the first
// (finest) tier's, because coarser tiers close on the finest tier's
// rotation beat.
type Tier struct {
	Name     string        // label in the history document ("1s", "1m")
	Interval time.Duration // nominal width of one sample
	Size     int           // ring capacity (samples retained)
}

// DefaultTiers is the standard two-tier retention — a minute of
// per-second deltas and an hour of per-minute deltas — scaled so that
// tick is the finest interval.
func DefaultTiers(tick time.Duration) []Tier {
	return []Tier{
		{Name: tick.String(), Interval: tick, Size: 60},
		{Name: (60 * tick).String(), Interval: 60 * tick, Size: 60},
	}
}

// WindowSample is one closed interval of one tier. Counters hold the
// per-interval increments, Histograms the per-interval observation
// deltas (summary only; quantiles were computed from exact bucket
// differences before compaction), and Gauges/Floats the instantaneous
// values at the close. Seq is the finest-tier rotation count at the
// close, so rates derive as delta/DurNS without any wall-clock in the
// document.
type WindowSample struct {
	Seq        uint64                       `json:"seq"`
	DurNS      int64                        `json:"dur_ns"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Floats     map[string]float64           `json:"floats"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// TierHistory is one tier's retained samples, oldest first.
type TierHistory struct {
	Name       string         `json:"name"`
	IntervalNS int64          `json:"interval_ns"`
	Size       int            `json:"size"`
	Samples    []WindowSample `json:"samples"`
}

// History is the full windowed document served at /metrics/history.
type History struct {
	Seq   uint64        `json:"seq"` // rotations completed
	Tiers []TierHistory `json:"tiers"`
}

// Tier returns the named tier, or the finest when name is "" and nil
// when absent.
func (h *History) Tier(name string) *TierHistory {
	if h == nil || len(h.Tiers) == 0 {
		return nil
	}
	if name == "" {
		return &h.Tiers[0]
	}
	for i := range h.Tiers {
		if h.Tiers[i].Name == name {
			return &h.Tiers[i]
		}
	}
	return nil
}

// Latest returns the most recent sample of the tier, or nil when none
// has closed yet.
func (t *TierHistory) Latest() *WindowSample {
	if t == nil || len(t.Samples) == 0 {
		return nil
	}
	return &t.Samples[len(t.Samples)-1]
}

// tierState is one tier's ring plus the cumulative snapshot its next
// delta will subtract from.
type tierState struct {
	cfg   Tier
	every uint64 // finest-tier rotations per sample
	prev  *Snapshot
	ring  []WindowSample
	next  int
	full  bool
}

func (t *tierState) push(s WindowSample) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.full = true
}

// samples returns the ring contents oldest first.
func (t *tierState) samples() []WindowSample {
	if !t.full {
		return append([]WindowSample(nil), t.ring...)
	}
	out := make([]WindowSample, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Window rotates registry snapshots into tiered delta rings. Safe for
// concurrent use: Rotate and History serialize on one mutex (rotation
// is expected from a single ticker goroutine; readers are scrapes).
type Window struct {
	reg *Registry

	mu    sync.Mutex
	seq   uint64
	tiers []*tierState
}

// NewWindow builds a window over reg with the given tiers (nil tiers
// means DefaultTiers(time.Second)). The registry's state at creation
// is the baseline every first sample subtracts from.
func NewWindow(reg *Registry, tiers []Tier) (*Window, error) {
	if len(tiers) == 0 {
		tiers = DefaultTiers(time.Second)
	}
	base := tiers[0].Interval
	if base <= 0 {
		return nil, fmt.Errorf("obs: window tier %q has non-positive interval", tiers[0].Name)
	}
	w := &Window{reg: reg}
	first := reg.Snapshot()
	for _, tc := range tiers {
		if tc.Size <= 0 {
			return nil, fmt.Errorf("obs: window tier %q has non-positive size %d", tc.Name, tc.Size)
		}
		if tc.Interval <= 0 || tc.Interval%base != 0 {
			return nil, fmt.Errorf("obs: window tier %q interval %v is not a multiple of the finest tier's %v",
				tc.Name, tc.Interval, base)
		}
		w.tiers = append(w.tiers, &tierState{
			cfg:   tc,
			every: uint64(tc.Interval / base),
			prev:  first,
			ring:  make([]WindowSample, 0, tc.Size),
		})
	}
	return w, nil
}

// Rotate closes one finest-tier interval: it snapshots the registry
// once and, for every tier whose beat has come due, subtracts the
// tier's previous cumulative snapshot into a delta sample and advances
// the ring. Called from the owner's ticker goroutine only — never from
// request-handling or combiner code.
func (w *Window) Rotate() {
	if w == nil {
		return
	}
	snap := w.reg.Snapshot()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	for _, t := range w.tiers {
		if w.seq%t.every != 0 {
			continue
		}
		t.push(deltaSample(t.prev, snap, w.seq, t.cfg.Interval))
		t.prev = snap
	}
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
		// Compact: the ring keeps summaries, not 4KB bucket arrays per
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

// History copies the current state of every tier, oldest samples
// first. Samples are shared immutable values; callers must not mutate
// their maps. A nil window yields an empty history.
func (w *Window) History() *History {
	h := &History{}
	if w == nil {
		return h
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	h.Seq = w.seq
	for _, t := range w.tiers {
		h.Tiers = append(h.Tiers, TierHistory{
			Name:       t.cfg.Name,
			IntervalNS: t.cfg.Interval.Nanoseconds(),
			Size:       t.cfg.Size,
			Samples:    t.samples(),
		})
	}
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
