package server

import (
	"sync"

	"pimds/internal/linearize"
)

// OpLog optionally records every operation the server applies, as
// linearize.Op intervals suitable for internal/linearize: Start is
// stamped by the reader goroutine when the op is decoded (before it is
// published to a shard) and End by the combiner right after the batch
// executes, so the true linearization point always lies inside the
// recorded interval. Client is the connection id; with one outstanding
// op per connection (the closed-loop pattern the linearizability tests
// use) that matches the checker's per-client program-order assumption.
//
// The log exists for testing and auditing; recording takes a mutex per
// batch, so leave it nil in throughput runs.
type OpLog struct {
	mu  sync.Mutex
	ops []linearize.Op
}

// NewOpLog returns an empty log.
func NewOpLog() *OpLog { return &OpLog{} }

// record appends one applied pass. A nil log is a no-op.
func (l *OpLog) record(ps *pass) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for _, sl := range ps.slots {
		for end := i + sl.hi - sl.lo; i < end; i++ {
			// in carries the reader-clamped Hi and Limit — the bounds a
			// scan actually ran with. Scan values live in the pass's
			// arena, which the next gather reuses, so the log keeps its
			// own copy.
			in, res := ps.ops[i], ps.results[i]
			l.ops = append(l.ops, linearize.Op{
				Start:   sl.f.start,
				End:     ps.end,
				Client:  sl.f.c.id,
				Kind:    in.Kind,
				Input:   in.Key,
				Input2:  in.Hi,
				Limit:   int(in.Limit),
				OK:      res.OK,
				Output:  res.Value,
				Outputs: append([]int64(nil), res.Values...),
			})
		}
	}
}

// Ops returns a copy of the recorded history. Call at quiescence (after
// Shutdown) for a complete log.
func (l *OpLog) Ops() []linearize.Op {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]linearize.Op(nil), l.ops...)
}
