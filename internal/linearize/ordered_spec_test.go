package linearize

import (
	"testing"

	"pimds/internal/op"
)

// seqOps builds a strictly sequential history (no concurrency): op i
// occupies [i, i], so the only legal order is the given one.
func seqOps(ops []Op) []Op {
	out := make([]Op, len(ops))
	for i, o := range ops {
		o.Start, o.End, o.Client = int64(i), int64(i), 0
		out[i] = o
	}
	return out
}

func TestSetSpecScanLegal(t *testing.T) {
	h := seqOps([]Op{
		{Kind: op.Add, Input: 10, OK: true},
		{Kind: op.Add, Input: 20, OK: true},
		{Kind: op.Add, Input: 30, OK: true},
		// Complete scan: cursor lands on hi.
		{Kind: op.RangeScan, Input: 5, Input2: 25, Limit: 16, Output: 25, Outputs: []int64{10, 20}, OK: true},
		// Truncated scan: cursor is the first unreturned key.
		{Kind: op.RangeScan, Input: 0, Input2: 100, Limit: 2, Output: 30, Outputs: []int64{10, 20}, OK: true},
		// Empty scan of a hole.
		{Kind: op.RangeScan, Input: 11, Input2: 19, Limit: 16, Output: 19, Outputs: nil, OK: true},
		// Inverted interval: legal, empty, complete.
		{Kind: op.RangeScan, Input: 50, Input2: 40, Limit: 16, Output: 40, Outputs: nil, OK: true},
	})
	if !check(t, SetSpec{}, h) {
		t.Fatal("legal scan history rejected")
	}
}

func TestSetSpecScanIllegal(t *testing.T) {
	base := []Op{
		{Kind: op.Add, Input: 10, OK: true},
		{Kind: op.Add, Input: 20, OK: true},
	}
	for name, scan := range map[string]Op{
		"missing key":   {Kind: op.RangeScan, Input: 0, Input2: 100, Limit: 16, Output: 100, Outputs: []int64{10}, OK: true},
		"phantom key":   {Kind: op.RangeScan, Input: 0, Input2: 100, Limit: 16, Output: 100, Outputs: []int64{10, 15, 20}, OK: true},
		"wrong order":   {Kind: op.RangeScan, Input: 0, Input2: 100, Limit: 16, Output: 100, Outputs: []int64{20, 10}, OK: true},
		"out of range":  {Kind: op.RangeScan, Input: 15, Input2: 100, Limit: 16, Output: 100, Outputs: []int64{10, 20}, OK: true},
		"wrong cursor":  {Kind: op.RangeScan, Input: 0, Input2: 100, Limit: 16, Output: 20, Outputs: []int64{10, 20}, OK: true},
		"over limit":    {Kind: op.RangeScan, Input: 0, Input2: 100, Limit: 1, Output: 100, Outputs: []int64{10, 20}, OK: true},
		"failed status": {Kind: op.RangeScan, Input: 0, Input2: 100, Limit: 16, Output: 100, Outputs: []int64{10, 20}, OK: false},
	} {
		h := seqOps(append(append([]Op(nil), base...), scan))
		if check(t, SetSpec{}, h) {
			t.Errorf("%s: illegal scan history accepted", name)
		}
	}
}

func TestSetSpecNeighborsAndPops(t *testing.T) {
	h := seqOps([]Op{
		{Kind: op.Add, Input: 10, OK: true},
		{Kind: op.Add, Input: 20, OK: true},
		{Kind: op.Add, Input: 30, OK: true},
		{Kind: op.Pred, Input: 25, Output: 20, OK: true},
		{Kind: op.Pred, Input: 10, OK: false},
		{Kind: op.Succ, Input: 20, Output: 30, OK: true},
		{Kind: op.Succ, Input: 30, OK: false},
		{Kind: op.PopMin, Output: 10, OK: true},
		{Kind: op.PopMax, Output: 30, OK: true},
		{Kind: op.PopMin, Output: 20, OK: true},
		{Kind: op.PopMin, OK: false},
		{Kind: op.PopMax, OK: false},
	})
	if !check(t, SetSpec{}, h) {
		t.Fatal("legal neighbor/pop history rejected")
	}

	for name, bad := range map[string][]Op{
		"pop wrong min":    {{Kind: op.Add, Input: 5, OK: true}, {Kind: op.Add, Input: 7, OK: true}, {Kind: op.PopMin, Output: 7, OK: true}},
		"pop empty ok":     {{Kind: op.PopMin, Output: 0, OK: true}},
		"pop nonempty !ok": {{Kind: op.Add, Input: 5, OK: true}, {Kind: op.PopMax, OK: false}},
		"pred not strict":  {{Kind: op.Add, Input: 5, OK: true}, {Kind: op.Pred, Input: 5, Output: 5, OK: true}},
		"succ wrong":       {{Kind: op.Add, Input: 5, OK: true}, {Kind: op.Add, Input: 9, OK: true}, {Kind: op.Succ, Input: 5, Output: 5, OK: true}},
	} {
		if check(t, SetSpec{}, seqOps(bad)) {
			t.Errorf("%s: illegal history accepted", name)
		}
	}
}

// TestScanObservesConcurrentRemove: a scan concurrent with a remove may
// or may not see the removed key — both answers must be accepted, and
// an answer consistent with neither order must not.
func TestScanObservesConcurrentRemove(t *testing.T) {
	base := []Op{
		{Start: 0, End: 1, Client: 0, Kind: op.Add, Input: 10, OK: true},
		{Start: 2, End: 3, Client: 0, Kind: op.Add, Input: 20, OK: true},
		{Start: 10, End: 20, Client: 1, Kind: op.Remove, Input: 10, OK: true},
	}
	sees := Op{Start: 12, End: 18, Client: 2, Kind: op.RangeScan, Input: 0, Input2: 100, Limit: 16, Output: 100, Outputs: []int64{10, 20}, OK: true}
	missed := sees
	missed.Outputs = []int64{20}
	phantom := sees
	phantom.Outputs = []int64{10, 15, 20}
	if !check(t, SetSpec{}, append(append([]Op(nil), base...), sees)) {
		t.Error("scan ordered before the remove rejected")
	}
	if !check(t, SetSpec{}, append(append([]Op(nil), base...), missed)) {
		t.Error("scan ordered after the remove rejected")
	}
	if check(t, SetSpec{}, append(append([]Op(nil), base...), phantom)) {
		t.Error("scan with a phantom key accepted")
	}
}
