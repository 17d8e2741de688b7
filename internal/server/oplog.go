package server

import (
	"sync"

	"pimds/internal/linearize"
	"pimds/internal/wire"
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
			in, res := ps.ops[i], ps.results[i]
			op := linearize.Op{
				Start:  sl.f.start,
				End:    ps.end,
				Client: sl.f.c.id,
				Input:  in.Key,
				OK:     res.OK,
			}
			switch in.Kind {
			case wire.Contains:
				op.Action = linearize.ActContains
			case wire.Add:
				op.Action = linearize.ActAdd
			case wire.Remove:
				op.Action = linearize.ActRemove
			case wire.Enqueue:
				op.Action = linearize.ActEnqueue
			case wire.Dequeue:
				op.Action = linearize.ActDequeue
				op.Output = res.Value
			case wire.Push:
				op.Action = linearize.ActPush
			case wire.Pop:
				op.Action = linearize.ActPop
				op.Output = res.Value
			case wire.RangeScan:
				// in carries the reader-clamped Hi and Limit — the bounds
				// the scan actually ran with. The values live in the pass's
				// arena, which the next gather reuses, so the log keeps its
				// own copy.
				op.Action = linearize.ActScan
				op.Input2 = in.Hi
				op.Limit = int(in.Limit)
				op.Output = res.Value
				op.Outputs = append([]int64(nil), res.Values...)
			case wire.Pred:
				op.Action = linearize.ActPred
				op.Output = res.Value
			case wire.Succ:
				op.Action = linearize.ActSucc
				op.Output = res.Value
			case wire.PopMin:
				op.Action = linearize.ActPopMin
				op.Output = res.Value
			case wire.PopMax:
				op.Action = linearize.ActPopMax
				op.Output = res.Value
			}
			l.ops = append(l.ops, op)
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
