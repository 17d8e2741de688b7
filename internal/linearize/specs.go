package linearize

import (
	"fmt"
	"sort"
	"strings"

	"pimds/internal/op"
)

// The bundled specifications read an Op's fields per kind:
//
//	Enqueue, Push       Input = value
//	Dequeue, Pop        Output = value if OK, empty if !OK
//	Add, Remove         Input = key; OK = was absent / was present
//	Contains            Input = key; OK = present
//	RangeScan           Input = lo, Input2 = hi, Limit = cap; Outputs = keys, Output = cursor
//	Pred, Succ          Input = key; OK = a smaller / larger key exists, Output = nearest such
//	PopMin, PopMax      OK = set non-empty, Output = smallest / largest key (removed)

// QueueSpec is the sequential FIFO queue specification.
type QueueSpec struct{}

// Init returns the empty queue state.
func (QueueSpec) Init() State { return queueState{} }

// queueState is an immutable FIFO queue (persistent slice semantics:
// Apply always copies).
type queueState struct {
	vals string // encoded values, comma separated (ints)
}

func encodeSeq(vals []int64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func decodeSeq(s string) []int64 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	vals := make([]int64, len(parts))
	for i, p := range parts {
		fmt.Sscan(p, &vals[i])
	}
	return vals
}

// Apply implements State.
func (q queueState) Apply(o Op) (State, bool) {
	switch o.Kind {
	case op.Enqueue:
		vals := decodeSeq(q.vals)
		return queueState{vals: encodeSeq(append(vals, o.Input))}, true
	case op.Dequeue:
		vals := decodeSeq(q.vals)
		if !o.OK {
			return q, len(vals) == 0
		}
		if len(vals) == 0 || vals[0] != o.Output {
			return q, false
		}
		return queueState{vals: encodeSeq(vals[1:])}, true
	}
	return q, false
}

// Key implements State.
func (q queueState) Key() string { return q.vals }

// StackSpec is the sequential LIFO stack specification.
type StackSpec struct{}

// Init returns the empty stack state.
func (StackSpec) Init() State { return stackState{} }

type stackState struct {
	vals string
}

// Apply implements State.
func (s stackState) Apply(o Op) (State, bool) {
	switch o.Kind {
	case op.Push:
		vals := decodeSeq(s.vals)
		return stackState{vals: encodeSeq(append(vals, o.Input))}, true
	case op.Pop:
		vals := decodeSeq(s.vals)
		if !o.OK {
			return s, len(vals) == 0
		}
		if len(vals) == 0 || vals[len(vals)-1] != o.Output {
			return s, false
		}
		return stackState{vals: encodeSeq(vals[:len(vals)-1])}, true
	}
	return s, false
}

// Key implements State.
func (s stackState) Key() string { return s.vals }

// SetSpec is the sequential ordered-set specification: add/remove/
// contains with the usual boolean results, plus the ordered operations
// (range scan with pagination cursor, strict predecessor/successor,
// extremum pops) that the sorted structures serve.
type SetSpec struct{}

// Init returns the empty set state.
func (SetSpec) Init() State { return setState{} }

type setState struct {
	keys string // sorted, comma separated
}

// Apply implements State.
func (s setState) Apply(o Op) (State, bool) {
	keys := decodeSeq(s.keys)
	switch o.Kind {
	case op.RangeScan:
		return s, s.scanLegal(keys, o)
	case op.Pred:
		for i := len(keys) - 1; i >= 0; i-- {
			if keys[i] < o.Input {
				return s, o.OK && o.Output == keys[i]
			}
		}
		return s, !o.OK
	case op.Succ:
		for _, k := range keys {
			if k > o.Input {
				return s, o.OK && o.Output == k
			}
		}
		return s, !o.OK
	case op.PopMin:
		if len(keys) == 0 {
			return s, !o.OK
		}
		if !o.OK || o.Output != keys[0] {
			return s, false
		}
		return setState{keys: encodeSeq(keys[1:])}, true
	case op.PopMax:
		if len(keys) == 0 {
			return s, !o.OK
		}
		if !o.OK || o.Output != keys[len(keys)-1] {
			return s, false
		}
		return setState{keys: encodeSeq(keys[:len(keys)-1])}, true
	}
	idx := sort.Search(len(keys), func(i int) bool { return keys[i] >= o.Input })
	present := idx < len(keys) && keys[idx] == o.Input
	switch o.Kind {
	case op.Contains:
		return s, o.OK == present
	case op.Add:
		if o.OK == present {
			return s, false
		}
		if !o.OK {
			return s, true // failed add: present, state unchanged
		}
		keys = append(keys[:idx], append([]int64{o.Input}, keys[idx:]...)...)
		return setState{keys: encodeSeq(keys)}, true
	case op.Remove:
		if o.OK != present {
			return s, false
		}
		if !o.OK {
			return s, true // failed remove: absent, state unchanged
		}
		keys = append(keys[:idx], keys[idx+1:]...)
		return setState{keys: encodeSeq(keys)}, true
	}
	return s, false
}

// scanLegal reports whether a recorded range scan is the answer this
// state gives for [Input, Input2) with the recorded Limit: the keys in
// the interval in ascending order, truncated at Limit, with the cursor
// at Input2 when the interval was exhausted or at the first unreturned
// key when the limit bit. Scans never mutate the state.
func (setState) scanLegal(keys []int64, o Op) bool {
	if !o.OK {
		return false // scans always succeed; a failed one is no scan
	}
	want := keys[:0:0]
	cursor := o.Input2
	for i, k := range keys {
		if k < o.Input || k >= o.Input2 {
			continue
		}
		if o.Limit > 0 && len(want) == o.Limit {
			cursor = keys[i]
			break
		}
		want = append(want, k)
	}
	if o.Output != cursor || len(o.Outputs) != len(want) {
		return false
	}
	for i := range want {
		if o.Outputs[i] != want[i] {
			return false
		}
	}
	return true
}

// Key implements State.
func (s setState) Key() string { return s.keys }
