// Package linearize implements a Wing & Gong style linearizability
// checker for operation histories with real-time intervals — the
// correctness condition the paper requires of its data structures
// ("designing concurrent data structures with correctness guarantees,
// like linearizability, very challenging", Section 6).
//
// The deterministic simulator makes the checker practical: every
// client records (invocation, response) in exact virtual time, and the
// checker searches for a legal sequential order consistent with those
// intervals. Complexity is exponential in the worst case but the
// effective branching factor equals the number of concurrent clients,
// and memoization over (linearized-set, state) keeps realistic
// histories (hundreds of operations, ≤ tens of clients) fast.
package linearize

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pimds/internal/op"
)

// Op is one completed operation. Input2, Limit and Outputs matter only
// to kinds that use them (a RangeScan's hi bound, result cap and
// returned keys); point kinds leave them zero.
type Op struct {
	Start   int64   // invocation time (exclusive precedence boundary)
	End     int64   // response time
	Client  int     // issuing client: ops of one client are program-ordered
	Kind    op.Kind // the operation; each spec reads the kinds of its object
	Input   int64
	Input2  int64   // second input (a scan's exclusive hi bound)
	Limit   int     // result cap (≤ 0 = unlimited)
	Output  int64   // primary output (a scan's pagination cursor)
	Outputs []int64 // variable-length output (a scan's keys)
	OK      bool    // spec-defined success flag of the response
}

// Spec is a sequential specification: Apply returns (successor state,
// true) if op's recorded response is legal from state, or (_, false).
// States must be immutable; Key must uniquely fingerprint a state.
type Spec interface {
	Init() State
}

// State is one immutable sequential-specification state.
type State interface {
	Apply(op Op) (State, bool)
	Key() string
}

// window is the maximum number of operations an interval may overlap
// in start order; it bounds the memoization bitmask. Closed-loop
// clients overlap at most #clients ops, far below this.
const window = 64

// Errors Check returns for a history it cannot judge. A history that
// is well formed but not linearizable is (false, nil), never an error.
var (
	// ErrInvertedInterval marks an operation whose End precedes its
	// Start.
	ErrInvertedInterval = errors.New("linearize: inverted interval")
	// ErrWindowExceeded marks a history in which more than 64
	// operations are pending at once (raise window if that ever
	// matters).
	ErrWindowExceeded = errors.New("linearize: concurrency window exceeded")
)

// Check reports whether history is linearizable with respect to spec.
// Precedence is the union of real-time order (A.End < B.Start) and
// per-client program order (closed-loop clients produce back-to-back
// operations whose response and next invocation carry the *same*
// virtual timestamp; the Client field keeps them ordered). A history
// Check cannot judge returns a non-nil error wrapping
// ErrInvertedInterval or ErrWindowExceeded.
func Check(spec Spec, history []Op) (bool, error) {
	if len(history) == 0 {
		return true, nil
	}
	ops := append([]Op(nil), history...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	for _, op := range ops {
		if op.End < op.Start {
			return false, fmt.Errorf("%w: %+v", ErrInvertedInterval, op)
		}
	}

	c := &checker{ops: ops, memo: make(map[string]bool)}
	ok := c.search(0, 0, spec.Init())
	if c.err != nil {
		return false, c.err
	}
	return ok, nil
}

type checker struct {
	ops  []Op
	memo map[string]bool
	err  error // set once the search cannot proceed; unwinds it
}

// search: ops[0:base) are all linearized; mask marks additionally
// linearized ops among ops[base : base+window).
func (c *checker) search(base int, mask uint64, st State) bool {
	// Normalize: advance base over completed low bits.
	for mask&1 == 1 {
		base++
		mask >>= 1
	}
	if base == len(c.ops) {
		return true
	}

	key := fmt.Sprintf("%d/%x/%s", base, mask, st.Key())
	if done, ok := c.memo[key]; ok {
		return done
	}

	// An op can be linearized next iff it is pending and no other
	// pending op finished before it started. The earliest End among
	// pending ops bounds which candidates are eligible.
	limit := len(c.ops) - base
	if limit > window {
		limit = window
	}
	minEnd := int64(math.MaxInt64)
	for i := 0; i < limit; i++ {
		if mask&(1<<i) != 0 {
			continue
		}
		if e := c.ops[base+i].End; e < minEnd {
			minEnd = e
		}
	}
	// Ops beyond the memoization window must not be eligible yet; with
	// closed-loop clients the window (64) far exceeds any realistic
	// concurrency, so this is a safety check, not a practical limit.
	if len(c.ops)-base > window && c.ops[base+window].Start <= minEnd {
		c.err = fmt.Errorf("%w: more than %d operations pending at op %d", ErrWindowExceeded, window, base)
		return false
	}
	ok := false
	for i := 0; i < limit; i++ {
		if mask&(1<<i) != 0 {
			continue
		}
		op := c.ops[base+i]
		if op.Start > minEnd {
			// Every later op (sorted by Start) starts even later:
			// all are preceded by the min-End pending op.
			break
		}
		// Program order: an earlier pending op of the same client must
		// linearize first. The stable sort keeps a client's ops in
		// history order, so scanning lower indices suffices.
		blocked := false
		for j := 0; j < i; j++ {
			if mask&(1<<j) == 0 && c.ops[base+j].Client == op.Client {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		next, legal := st.Apply(op)
		if !legal {
			continue
		}
		if c.search(base, mask|1<<i, next) {
			ok = true
			break
		}
		if c.err != nil {
			return false
		}
	}
	c.memo[key] = ok
	return ok
}
