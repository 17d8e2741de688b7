// Package harness provides the workload generators, measurement loops
// and table formatting shared by the benchmark executables
// (cmd/pimbench, cmd/pimsim, cmd/pimmodel), the root-level Go
// benchmarks, and the examples. Each experiment of DESIGN.md §3 is a
// function in this package returning a formatted table.
package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"pimds/internal/op"
)

// Set kinds kept for bench/, which is frozen until ROADMAP item 7's
// [benchmark] PR and indexes a table by them; everything else names
// them through package op.
const (
	Contains = op.Contains  // kept for bench/
	Add      = op.Add       // kept for bench/
	Remove   = op.Remove    // kept for bench/
	Scan     = op.RangeScan // kept for bench/
)

// Mix is an operation mix in percent; all fields together must sum to
// 100. The ordered percentages matter only to workloads whose target
// serves the ordered surface (the network server's list/skip
// structures); the in-process structure benchmarks use the point trio.
type Mix struct {
	ContainsPct int
	AddPct      int
	RemovePct   int

	ScanPct   int
	PredPct   int
	SuccPct   int
	PopMinPct int
	PopMaxPct int
}

// OrderedPct is the share of ordered operations in the mix.
func (m Mix) OrderedPct() int {
	return m.ScanPct + m.PredPct + m.SuccPct + m.PopMinPct + m.PopMaxPct
}

// Validate checks the mix sums to 100 with no negative share.
func (m Mix) Validate() error {
	for _, pct := range []int{m.ContainsPct, m.AddPct, m.RemovePct, m.ScanPct, m.PredPct, m.SuccPct, m.PopMinPct, m.PopMaxPct} {
		if pct < 0 {
			return fmt.Errorf("harness: mix %+v has a negative share", m)
		}
	}
	if m.ContainsPct+m.AddPct+m.RemovePct+m.OrderedPct() != 100 {
		return fmt.Errorf("harness: mix %+v does not sum to 100", m)
	}
	return nil
}

// ParseMix parses the mix spec shared by the pimbench and pimload -mix
// flags: the point trio "contains/add/remove", optionally followed by
// named ordered shares, all summing to 100. Examples:
//
//	90/5/5
//	25/30/30,scan:10,popmin:5
//	0/45/45,scan:10
func ParseMix(spec string) (Mix, error) {
	parts := strings.Split(spec, ",")
	var m Mix
	if _, err := fmt.Sscanf(parts[0], "%d/%d/%d", &m.ContainsPct, &m.AddPct, &m.RemovePct); err != nil {
		return Mix{}, fmt.Errorf("harness: bad mix %q (want C/A/R[,kind:pct...], e.g. 25/30/30,scan:10,popmin:5)", spec)
	}
	for _, p := range parts[1:] {
		name, val, ok := strings.Cut(p, ":")
		var pct int
		if ok {
			var err error
			pct, err = strconv.Atoi(val)
			ok = err == nil
		}
		if !ok {
			return Mix{}, fmt.Errorf("harness: bad mix term %q (want kind:pct)", p)
		}
		switch name {
		case "scan":
			m.ScanPct = pct
		case "pred":
			m.PredPct = pct
		case "succ":
			m.SuccPct = pct
		case "popmin":
			m.PopMinPct = pct
		case "popmax":
			m.PopMaxPct = pct
		default:
			return Mix{}, fmt.Errorf("harness: unknown mix kind %q (want scan|pred|succ|popmin|popmax)", name)
		}
	}
	if err := m.Validate(); err != nil {
		return Mix{}, err
	}
	return m, nil
}

// Balanced is the paper's size-stable update-only mix (equal adds and
// removes).
func Balanced() Mix { return Mix{AddPct: 50, RemovePct: 50} }

// ReadMostly is a typical search-dominated mix.
func ReadMostly() Mix { return Mix{ContainsPct: 90, AddPct: 5, RemovePct: 5} }

// KeyDist generates keys.
type KeyDist interface {
	// Next returns the next key using rng.
	Next(rng *rand.Rand) int64
	// Space returns the exclusive key-space bound.
	Space() int64
	// Name describes the distribution.
	Name() string
}

// Uniform draws keys uniformly from [0, N).
type Uniform struct{ N int64 }

// Next returns a uniform key.
func (u Uniform) Next(rng *rand.Rand) int64 { return rng.Int63n(u.N) }

// Space returns N.
func (u Uniform) Space() int64 { return u.N }

// Name describes the distribution.
func (u Uniform) Name() string { return fmt.Sprintf("uniform[0,%d)", u.N) }

// HotRange sends HotPct percent of keys into the first FracPct percent
// of the key space — the skewed workload used by the rebalancing
// experiment (§4.2.1).
type HotRange struct {
	N       int64
	HotPct  int // share of requests hitting the hot range
	FracPct int // size of the hot range as a share of the space
}

// Next returns a skewed key.
func (h HotRange) Next(rng *rand.Rand) int64 {
	hot := h.N * int64(h.FracPct) / 100
	if hot < 1 {
		hot = 1
	}
	if rng.Intn(100) < h.HotPct {
		return rng.Int63n(hot)
	}
	if h.N == hot {
		return rng.Int63n(h.N)
	}
	return hot + rng.Int63n(h.N-hot)
}

// Space returns N.
func (h HotRange) Space() int64 { return h.N }

// Name describes the distribution.
func (h HotRange) Name() string {
	return fmt.Sprintf("hot[%d%%→%d%% of %d]", h.HotPct, h.FracPct, h.N)
}

// Zipf draws keys Zipf-distributed over [0, N).
type Zipf struct {
	N int64
	S float64 // skew exponent (> 1)
}

// Next returns a Zipf key. The interface is stateless, so this path
// recreates the rand.Zipf source from the rng each call; Generator
// recognizes the Zipf distribution and caches the source instead
// (rand.NewZipf draws nothing at construction, so both paths produce
// the same key stream from the same rng).
func (z Zipf) Next(rng *rand.Rand) int64 {
	zf := rand.NewZipf(rng, z.S, 1, uint64(z.N-1))
	return int64(zf.Uint64())
}

// source builds the cached form bound to rng.
func (z Zipf) source(rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, z.S, 1, uint64(z.N-1))
}

// Space returns N.
func (z Zipf) Space() int64 { return z.N }

// Name describes the distribution.
func (z Zipf) Name() string { return fmt.Sprintf("zipf(s=%.2f)[0,%d)", z.S, z.N) }

// ParseKeyDist parses a key-distribution spec shared by the pimbench
// -dist and pimload -dist flags:
//
//	uniform          uniform over [0, space)
//	zipf             Zipf with the default skew s=1.2
//	zipf:S           Zipf with skew exponent S (> 1)
//	hot:H/F          H% of keys in the first F% of the space
//
// Every distribution is seeded through the generator's rng, so the
// same (seed, spec) pair reproduces the same key stream.
func ParseKeyDist(spec string, space int64) (KeyDist, error) {
	if space < 2 {
		return nil, fmt.Errorf("harness: key space %d too small", space)
	}
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "", "uniform":
		return Uniform{N: space}, nil
	case "zipf":
		s := 1.2
		if arg != "" {
			var err error
			if s, err = strconv.ParseFloat(arg, 64); err != nil {
				return nil, fmt.Errorf("harness: bad zipf skew %q: %v", arg, err)
			}
		}
		if s <= 1 {
			return nil, fmt.Errorf("harness: zipf skew must be > 1, got %g", s)
		}
		return Zipf{N: space, S: s}, nil
	case "hot":
		hot, frac := 90, 10
		if arg != "" {
			if _, err := fmt.Sscanf(arg, "%d/%d", &hot, &frac); err != nil {
				return nil, fmt.Errorf("harness: bad hot spec %q (want H/F, e.g. hot:90/10): %v", arg, err)
			}
		}
		if hot < 0 || hot > 100 || frac < 1 || frac > 100 {
			return nil, fmt.Errorf("harness: hot spec %d/%d out of range", hot, frac)
		}
		return HotRange{N: space, HotPct: hot, FracPct: frac}, nil
	}
	return nil, fmt.Errorf("harness: unknown key distribution %q (want uniform, zipf[:S] or hot[:H/F])", spec)
}

// Generator produces a deterministic operation stream.
type Generator struct {
	rng  *rand.Rand
	dist KeyDist
	mix  Mix
	zipf *rand.Zipf // cached Zipf source; nil for other distributions

	// ScanSpan is the width of generated range scans: a scan covers
	// [lo, lo+ScanSpan) with lo drawn from the key distribution, so
	// skewed distributions scan hot regions exactly as often as they
	// point-read them. NewGenerator defaults it to 1/64 of the space.
	ScanSpan int64
	// ScanLimit is the per-scan result cap sent with each scan (0 lets
	// the server apply its maximum).
	ScanLimit uint16
}

// NewGenerator builds a generator; the same seed yields the same
// stream. A Zipf distribution's source is built once here — Zipf.Next
// would otherwise reconstruct it (and its internal state) on every
// draw, allocating in the load generator's inner loop.
func NewGenerator(seed int64, dist KeyDist, mix Mix) *Generator {
	if err := mix.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{rng: rand.New(rand.NewSource(seed)), dist: dist, mix: mix}
	if z, ok := dist.(Zipf); ok {
		g.zipf = z.source(g.rng)
	}
	if g.ScanSpan = dist.Space() / 64; g.ScanSpan < 1 {
		g.ScanSpan = 1
	}
	return g
}

// Next returns the next operation. This is the injector's per-op cost
// on every load path, so it stays allocation-free; the uncached
// distributions draw through the KeyDist interface, whose module
// implementations are pure arithmetic over the rng.
//
//pimvet:nopark
func (g *Generator) Next() op.Op {
	var k int64
	if g.zipf != nil {
		k = int64(g.zipf.Uint64())
	} else {
		k = g.dist.Next(g.rng)
	}
	r := g.rng.Intn(100)
	if c := g.mix.ContainsPct; r < c {
		return op.Op{Kind: op.Contains, Key: k}
	} else if r -= c; r < g.mix.AddPct {
		return op.Op{Kind: op.Add, Key: k}
	} else if r -= g.mix.AddPct; r < g.mix.RemovePct {
		return op.Op{Kind: op.Remove, Key: k}
	} else if r -= g.mix.RemovePct; r < g.mix.ScanPct {
		return op.Op{Kind: op.RangeScan, Key: k, Hi: k + g.ScanSpan, Limit: g.ScanLimit}
	} else if r -= g.mix.ScanPct; r < g.mix.PredPct {
		return op.Op{Kind: op.Pred, Key: k}
	} else if r -= g.mix.PredPct; r < g.mix.SuccPct {
		return op.Op{Kind: op.Succ, Key: k}
	} else if r -= g.mix.SuccPct; r < g.mix.PopMinPct {
		return op.Op{Kind: op.PopMin}
	}
	return op.Op{Kind: op.PopMax}
}

// Stream adapts the generator to the signature simulator clients use.
func (g *Generator) Stream() func(seq uint64) op.Op {
	return func(uint64) op.Op { return g.Next() }
}

// PreloadKeys returns every other key of [0, space) — the standard
// half-full initial population whose steady state matches a balanced
// add/remove mix.
func PreloadKeys(space int64) []int64 {
	keys := make([]int64, 0, space/2)
	for k := int64(0); k < space; k += 2 {
		keys = append(keys, k)
	}
	return keys
}
