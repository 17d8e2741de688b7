// Package fcstack implements a flat-combining stack: one combiner lock
// over a sequential stack, following Hendler et al. [25] (flat
// combining's original showcase structure). A combiner can also
// *eliminate* matching push/pop pairs in its batch without touching
// memory at all — the classic FC-stack optimization, enabled by
// default.
package fcstack

import "pimds/internal/cds/flatcombining"

// op kinds inside the combiner.
type opKind uint8

const (
	opPush opKind = iota
	opPop
)

type request struct {
	kind opKind
	val  int64
}

// popResult is the result of one pop.
type popResult struct {
	val int64
	ok  bool
}

// Stack is a flat-combining LIFO stack of int64 values. Create one
// with New; each goroutine needs its own Handle.
type Stack struct {
	fc        *flatcombining.FC[request, popResult]
	vals      []int64
	eliminate bool

	// Eliminated counts push/pop pairs served without touching the
	// stack (stats).
	Eliminated uint64
}

// New returns an empty stack; eliminate enables push/pop pair
// elimination within combiner batches.
func New(eliminate bool) *Stack {
	s := &Stack{eliminate: eliminate}
	s.fc = flatcombining.New(s.apply)
	return s
}

func (s *Stack) apply(batch []*flatcombining.Record[request, popResult]) {
	if s.eliminate {
		// Pair each pop with the nearest unmatched push in the batch:
		// both complete immediately (the pop returns the push's value)
		// and the stack itself is untouched. Any serialization of a
		// concurrent batch is linearizable, so pairing is legal.
		var pushes []*flatcombining.Record[request, popResult]
		for _, rec := range batch {
			req := rec.Op()
			if req.kind == opPush {
				pushes = append(pushes, rec)
				continue
			}
			if len(pushes) > 0 {
				push := pushes[len(pushes)-1]
				pushes = pushes[:len(pushes)-1]
				rec.Finish(popResult{val: push.Op().val, ok: true})
				push.Finish(popResult{})
				s.Eliminated++
				continue
			}
			rec.Finish(s.popOne())
		}
		for _, push := range pushes {
			s.vals = append(s.vals, push.Op().val)
			push.Finish(popResult{})
		}
		return
	}
	for _, rec := range batch {
		req := rec.Op()
		if req.kind == opPush {
			s.vals = append(s.vals, req.val)
			rec.Finish(popResult{})
		} else {
			rec.Finish(s.popOne())
		}
	}
}

func (s *Stack) popOne() popResult {
	if len(s.vals) == 0 {
		return popResult{}
	}
	v := s.vals[len(s.vals)-1]
	s.vals = s.vals[:len(s.vals)-1]
	return popResult{val: v, ok: true}
}

// Handle is a per-goroutine access handle.
type Handle struct {
	s   *Stack
	rec *flatcombining.Record[request, popResult]
}

// NewHandle registers a goroutine with the stack.
func (s *Stack) NewHandle() *Handle {
	return &Handle{s: s, rec: s.fc.NewRecord()}
}

// Push adds v to the top of the stack.
func (h *Handle) Push(v int64) {
	h.s.fc.Do(h.rec, request{kind: opPush, val: v})
}

// Pop removes and returns the top value; ok is false if the stack was
// empty (after elimination).
func (h *Handle) Pop() (v int64, ok bool) {
	r := h.s.fc.Do(h.rec, request{kind: opPop})
	return r.val, r.ok
}

// Len returns the stack depth at quiescence (tests).
func (s *Stack) Len() int { return len(s.vals) }
