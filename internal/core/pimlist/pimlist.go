// Package pimlist implements the PIM-managed linked-list of Section
// 4.1 on the discrete-event simulator: the list lives in one vault; CPU
// clients send operation requests to the vault's PIM core, which
// traverses the list locally and replies. Two variants are provided:
//
//   - naive: the core serves one request per traversal (Table 1 row 3);
//   - combining: the core drains its message buffer and serves the
//     whole batch in a single traversal, the flat-combining-inspired
//     optimization the paper proposes (Table 1 row 5).
//
// The package also provides virtual-time CPU baselines (fine-grained
// locks and flat combining) so simulations can reproduce all five rows
// of Table 1 and Figure 2 under identical workloads.
package pimlist

import (
	"pimds/internal/cds/seqlist"
	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/sim"
)

// Message kinds for the list protocol.
const (
	MsgContains = iota + 1 // request: Key = key
	MsgAdd
	MsgRemove
	MsgResp // response: OK = result, Key echoed
)

// List is a PIM-managed linked-list living in a single vault.
type List struct {
	core      *sim.PIMCore
	seq       *seqlist.List
	combining bool

	// BatchLimit caps how many buffered requests one traversal may
	// serve when combining; 0 means unlimited. The paper's combiner
	// serves "all concurrent requests"; the cap exists for the
	// ablation study.
	BatchLimit int

	// Batches and Served count combining statistics.
	Batches uint64
	Served  uint64

	batchSize *obs.Histogram // combined-batch sizes (nil = disabled)

	ops     []op.Op       // scratch
	results []bool        // scratch
	msgs    []sim.Message // scratch
}

// New creates a PIM-managed list on a fresh PIM core of e. If combining
// is true the core serves batches in single traversals, waiting just
// over one client round trip (2·Lmessage) before each pass so the whole
// set of closed-loop clients lands in the batch (see
// sim.PIMCore.ServiceDelay).
func New(e *sim.Engine, combining bool) *List {
	l := &List{seq: seqlist.New(), combining: combining}
	l.core = e.NewPIMCore(l.handle)
	if combining {
		l.core.ServiceDelay = 2*e.Config().Lmessage + sim.Nanosecond
	}
	l.instrument(e)
	return l
}

// CoreID returns the PIM core clients must send requests to.
func (l *List) CoreID() sim.CoreID { return l.core.ID() }

// Core exposes the underlying PIM core (stats, vault counters).
func (l *List) Core() *sim.PIMCore { return l.core }

// Len returns the number of keys currently stored.
func (l *List) Len() int { return l.seq.Len() }

// Keys returns the stored keys in ascending order (tests).
func (l *List) Keys() []int64 { return l.seq.Keys() }

// Preload inserts keys without charging simulation cost (initial
// population, before the simulation starts).
func (l *List) Preload(keys []int64) {
	for _, k := range keys {
		l.seq.AddKey(k)
	}
}

// opFor converts a request message to a sequential-list operation.
func opFor(m sim.Message) (op.Op, bool) {
	switch m.Kind {
	case MsgContains:
		return op.Op{Kind: op.Contains, Key: m.Key}, true
	case MsgAdd:
		return op.Op{Kind: op.Add, Key: m.Key}, true
	case MsgRemove:
		return op.Op{Kind: op.Remove, Key: m.Key}, true
	default:
		return op.Op{}, false
	}
}

// handle serves one request (naive) or one batch (combining).
func (l *List) handle(c *sim.PIMCore, m sim.Message) {
	l.msgs = l.msgs[:0]
	l.msgs = append(l.msgs, m)
	if l.combining {
		limit := l.BatchLimit - 1
		if l.BatchLimit == 0 {
			limit = -1
		}
		l.msgs = c.TakeQueued(l.msgs, limit)
	}

	l.ops = l.ops[:0]
	for _, req := range l.msgs {
		op, ok := opFor(req)
		if !ok {
			panic("pimlist: unknown request kind")
		}
		l.ops = append(l.ops, op)
	}

	l.seq.ResetSteps()
	if cap(l.results) < len(l.ops) {
		l.results = make([]bool, len(l.ops))
	}
	results := l.results[:len(l.ops)]
	if l.combining {
		l.seq.ApplyBatchInto(l.ops, results)
	} else {
		results[0] = l.seq.Apply(l.ops[0])
	}

	// Charge the traversal: every node visit is one vault read.
	c.ReadN(int(l.seq.Steps()))
	for i, req := range l.msgs {
		// Mutations pay one vault write for the pointer splice.
		if (l.ops[i].Kind == op.Add || l.ops[i].Kind == op.Remove) && results[i] {
			c.Write()
		}
		c.Send(sim.Message{To: req.From, Kind: MsgResp, Key: req.Key, OK: results[i]})
		c.CountOp()
	}
	l.Batches++
	l.Served += uint64(len(l.msgs))
	l.batchSize.Observe(int64(len(l.msgs)))
}

// NewClient returns a closed-loop client that issues the operation
// stream produced by next (called once per request).
func (l *List) NewClient(e *sim.Engine, next func(seq uint64) op.Op) *sim.Client {
	return sim.NewClient(e, func(c *sim.CPU, seq uint64) sim.Message {
		o := next(seq)
		kind := MsgContains
		switch o.Kind {
		case op.Add:
			kind = MsgAdd
		case op.Remove:
			kind = MsgRemove
		}
		return sim.Message{To: l.core.ID(), Kind: kind, Key: o.Key}
	})
}
