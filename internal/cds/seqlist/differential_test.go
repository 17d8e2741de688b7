package seqlist

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pimds/internal/op"
)

// oracle is the list as a sorted slice. It answers every entry point
// and counts the node visits List's walks make: p is the position of
// the walk's predecessor, -1 for the sentinel.
type oracle struct {
	keys  []int64
	steps uint64
}

func (o *oracle) find(p int, k int64) int {
	for p+1 < len(o.keys) && o.keys[p+1] < k {
		p++
		o.steps++
	}
	if p+1 < len(o.keys) {
		o.steps++
	}
	return p
}

func (o *oracle) at(p int, k int64) bool { return p+1 < len(o.keys) && o.keys[p+1] == k }

// point applies one Contains/Add/Remove with the walk's predecessor at p.
func (o *oracle) point(p int, x op.Op) bool {
	switch x.Kind {
	case op.Contains:
		return o.at(p, x.Key)
	case op.Add:
		if o.at(p, x.Key) {
			return false
		}
		o.keys = slices.Insert(o.keys, p+1, x.Key)
		return true
	case op.Remove:
		if !o.at(p, x.Key) {
			return false
		}
		o.keys = slices.Delete(o.keys, p+1, p+2)
		return true
	}
	return false
}

func (o *oracle) popMin() (int64, bool) {
	if len(o.keys) == 0 {
		return 0, false
	}
	o.steps++
	k := o.keys[0]
	o.keys = o.keys[1:]
	return k, true
}

func (o *oracle) popMax() (int64, bool) {
	n := len(o.keys)
	if n == 0 {
		return 0, false
	}
	o.steps += uint64(n)
	k := o.keys[n-1]
	o.keys = o.keys[:n-1]
	return k, true
}

// sweep returns the indexes of ops in ascending key order, ties in
// batch order.
func sweep(ops []op.Op, keep func(op.Op) bool) []int {
	var idx []int
	for i, x := range ops {
		if keep(x) {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].Key < ops[idx[b]].Key })
	return idx
}

func (o *oracle) batch(ops []op.Op) []bool {
	res := make([]bool, len(ops))
	p := -1
	for _, i := range sweep(ops, func(op.Op) bool { return true }) {
		p = o.find(p, ops[i].Key)
		res[i] = o.point(p, ops[i])
	}
	return res
}

func (o *oracle) ordered(ops []op.Op) []op.Result {
	res := make([]op.Result, len(ops))
	scans := make([][]int64, len(ops))
	for i, x := range ops {
		switch x.Kind {
		case op.PopMin:
			v, ok := o.popMin()
			res[i] = op.Result{OK: ok, Value: v}
		case op.PopMax:
			v, ok := o.popMax()
			res[i] = op.Result{OK: ok, Value: v}
		}
	}
	p := -1
	for _, i := range sweep(ops, func(x op.Op) bool { return x.Kind != op.PopMin && x.Kind != op.PopMax }) {
		x := ops[i]
		p = o.find(p, x.Key)
		switch x.Kind {
		case op.Pred:
			if p >= 0 {
				res[i] = op.Result{OK: true, Value: o.keys[p]}
			}
		case op.Succ:
			n := p + 1
			if o.at(p, x.Key) {
				n++
				o.steps++
			}
			if n < len(o.keys) {
				res[i] = op.Result{OK: true, Value: o.keys[n]}
			}
		case op.RangeScan:
			cursor := x.Hi
			for j := p + 1; j < len(o.keys) && o.keys[j] < x.Hi; j++ {
				if x.Limit > 0 && len(scans[i]) == int(x.Limit) {
					cursor = o.keys[j]
					break
				}
				scans[i] = append(scans[i], o.keys[j])
				o.steps++
			}
			res[i] = op.Result{OK: true, Value: cursor, Values: scans[i]}
		default:
			res[i] = op.Result{OK: o.point(p, x)}
		}
	}
	return res
}

// within reports whether seg is a segment of arena.
func within(arena, seg []int64) bool {
	if len(seg) == 0 {
		return true
	}
	for i := 0; i+len(seg) <= len(arena); i++ {
		if &arena[i] == &seg[0] {
			return true
		}
	}
	return false
}

// checkLayout asserts what a re-layout promises: the sentinel and then
// every key in ascending order sit at consecutive slab addresses.
func checkLayout(t *testing.T, l *List, step int) {
	t.Helper()
	i := 0
	for n := l.head; n != nil; n = n.next {
		if n != &l.nodes.Slab()[i] {
			t.Fatalf("step %d: after a re-layout, list node %d is not slab node %d", step, i, i)
		}
		i++
	}
}

// TestDifferentialAgainstSortedSlice drives a long seeded history
// through every entry point while the list grows, shrinks and churns
// across many re-layouts. Every result, the contents, the length and
// the step count must match the sorted-slice oracle after every call;
// after every re-layout the nodes must be laid out in key order.
func TestDifferentialAgainstSortedSlice(t *testing.T) {
	const (
		keySpace = 4096
		steps    = 30000
	)
	rng := rand.New(rand.NewSource(7))
	l, o := New(), &oracle{}
	key := func() int64 { return rng.Int63n(keySpace) }
	// addPct drifts between phases so the list grows past several
	// chunks, shrinks, and churns at each size.
	addPct := 0
	relayouts, checked, grows := 0, 0, 0
	var arena []int64
	for step := 0; step < steps; step++ {
		if step%2000 == 0 {
			addPct = []int{70, 50, 20, 60, 35, 80, 10, 50}[step/2000%8]
		}
		// Add addPct %, Remove the rest of 80 %, Contains 20 %.
		pointKind := func() op.Kind {
			switch r := rng.Intn(100); {
			case r < addPct:
				return op.Add
			case r < 80:
				return op.Remove
			}
			return op.Contains
		}
		capacity := l.nodes.Cap()
		switch r := rng.Intn(100); {
		case r < 40: // point batch
			ops := make([]op.Op, 1+rng.Intn(80))
			for i := range ops {
				ops[i] = op.Op{Kind: pointKind(), Key: key()}
			}
			want := o.batch(ops)
			var got []bool
			if r < 35 {
				got = make([]bool, len(ops))
				l.ApplyBatchInto(ops, got)
			} else {
				got = l.ApplyBatch(ops)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: batch %v: got %v, want %v", step, ops, got, want)
			}
		case r < 70: // ordered batch
			ops := make([]op.Op, 1+rng.Intn(40))
			for i := range ops {
				x := op.Op{ID: uint64(i + 1), Kind: pointKind(), Key: key()}
				switch rng.Intn(10) {
				case 0:
					x.Kind = op.Pred
				case 1:
					x.Kind = op.Succ
				case 2:
					x.Kind, x.Hi, x.Limit = op.RangeScan, x.Key+rng.Int63n(300)-20, uint16(rng.Intn(12))
				case 3:
					x.Kind = []op.Kind{op.PopMin, op.PopMax}[rng.Intn(2)]
				}
				ops[i] = x
			}
			want := o.ordered(ops)
			got := make([]op.Result, len(ops))
			arena = l.ApplyOrderedBatchInto(ops, got, arena[:0])
			for i := range ops {
				g, w := got[i], want[i]
				scan := ops[i].Kind == op.RangeScan
				if g.ID != ops[i].ID || g.OK != w.OK || g.Value != w.Value || len(g.Values) != len(w.Values) || !scan && g.Values != nil {
					t.Fatalf("step %d: ordered op %d %+v: got %+v, want %+v", step, i, ops[i], g, w)
				}
				if scan && (!slices.Equal(g.Values, w.Values) || !within(arena, g.Values)) {
					t.Fatalf("step %d: scan %+v: got %v, want %v (a segment of the arena)", step, ops[i], g.Values, w.Values)
				}
			}
		case r < 94: // single-key calls
			x := op.Op{Kind: pointKind(), Key: key()}
			want := o.point(o.find(-1, x.Key), x)
			var got bool
			switch rng.Intn(2) {
			case 0:
				got = l.Apply(x)
			default:
				switch x.Kind {
				case op.Contains:
					got = l.ContainsKey(x.Key)
				case op.Add:
					got = l.AddKey(x.Key)
				case op.Remove:
					got = l.RemoveKey(x.Key)
				}
			}
			if got != want {
				t.Fatalf("step %d: %+v: got %v, want %v", step, x, got, want)
			}
		case r < 99: // pops
			var gk, wk int64
			var gok, wok bool
			if rng.Intn(2) == 0 {
				gk, gok = l.PopMinKey()
				wk, wok = o.popMin()
			} else {
				gk, gok = l.PopMaxKey()
				wk, wok = o.popMax()
			}
			if gk != wk || gok != wok {
				t.Fatalf("step %d: pop: got (%d, %v), want (%d, %v)", step, gk, gok, wk, wok)
			}
		default:
			l.ResetSteps()
			o.steps = 0
		}

		if l.Steps() != o.steps {
			t.Fatalf("step %d: Steps() = %d, oracle visited %d nodes", step, l.Steps(), o.steps)
		}
		if l.Len() != len(o.keys) {
			t.Fatalf("step %d: Len() = %d, want %d", step, l.Len(), len(o.keys))
		}
		if !slices.Equal(l.Keys(), o.keys) {
			t.Fatalf("step %d: Keys() diverged from the oracle", step)
		}
		if l.nodes.Cap() > capacity {
			grows++
		}
		// Every re-layout ends its call, so nothing has moved since.
		if l.relayouts != relayouts {
			relayouts = l.relayouts
			checkLayout(t, l, step)
			checked++
		}
	}
	if checked < 100 || grows < 5 {
		t.Errorf("history crossed %d checked re-layouts and %d chunk growths, want ≥ 100 and ≥ 5", checked, grows)
	}
	t.Logf("%d steps, %d re-layouts checked, %d chunk growths, final length %d", steps, checked, grows, l.Len())
}
