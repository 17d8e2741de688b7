package linearize

import (
	"testing"

	"pimds/internal/op"
)

// Regression scaffold: sequential same-producer enqueues must force
// FIFO output order even when dequeues overlap other operations.
func TestRepro(t *testing.T) {
	h := []Op{
		{Start: 0, End: 1, Kind: op.Enqueue, Input: 10},
		{Start: 2, End: 3, Kind: op.Enqueue, Input: 11},
		{Start: 2, End: 5, Kind: op.Dequeue, Output: 11, OK: true},
		{Start: 6, End: 7, Kind: op.Dequeue, Output: 10, OK: true},
	}
	if check(t, QueueSpec{}, h) {
		t.Error("expected rejection: 11 cannot dequeue before 10 — wait, deq(11) overlaps enq(11)? Start=2..5 overlaps 2..3; enq(10) ended at 1 before enq(11): FIFO forces 10 first. Reject.")
	}
}
