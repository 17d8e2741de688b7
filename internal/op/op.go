// Package op is the operation vocabulary every layer shares, from the
// wire to the sequential structures: the kind of an operation, the
// operation itself and its result. The paper's PIM core takes requests
// in one format and applies a whole batch of them (Sections 3, 4.1);
// the server's combiner is that core, so a decoded op reaches the
// structure as it came off the wire, and the structure fills the
// result the writer encodes.
//
// Kind's byte values are the wire's kind byte and every WAL record's,
// so they must never change (TestKindBytes pins them).
package op

import "fmt"

// Kind is an operation selector. The set kinds (Contains/Add/Remove)
// drive the list, skip and hash structures; the queue and stack kinds
// drive their respective structures; the ordered kinds
// (RangeScan/Pred/Succ/PopMin/PopMax) drive structures that keep their
// keys sorted (list, skip).
type Kind uint8

// Operation kinds.
const (
	Contains Kind = iota
	Add
	Remove
	Enqueue
	Dequeue
	Push
	Pop

	// RangeScan returns up to Limit keys in the half-open interval
	// [Key, Hi), in ascending order. The result's Value is the resume
	// cursor: the scan is complete when cursor ≥ Hi, otherwise the
	// client paginates by re-issuing with Key = cursor. On a
	// range-partitioned server a single scan never crosses a shard
	// boundary — Hi is clamped to the owning shard's upper bound and
	// the cursor walks the client into the next shard naturally.
	RangeScan
	// Pred returns the largest key strictly less than Key (OK=false
	// when none exists).
	Pred
	// Succ returns the smallest key strictly greater than Key
	// (OK=false when none exists).
	Succ
	// PopMin removes and returns the smallest key (OK=false on empty).
	PopMin
	// PopMax removes and returns the largest key (OK=false on empty).
	PopMax

	numKinds // sentinel, not a valid kind
)

// NumKinds is the number of defined operation kinds; capability tables
// index by kind.
const NumKinds = int(numKinds)

// Valid reports whether k is a defined operation kind.
func (k Kind) Valid() bool { return k < numKinds }

// Ordered reports whether k is an ordered-structure operation: one
// served only by structures that keep their keys sorted.
func (k Kind) Ordered() bool { return k >= RangeScan && k < numKinds }

// Mutating reports whether k can change structure state. Only mutating
// ops need to reach a write-ahead log: Contains/RangeScan/Pred/Succ
// leave the structure untouched, and the conditional mutators (a failed
// Add, a Pop on empty) replay as deterministic no-ops.
func (k Kind) Mutating() bool {
	switch k {
	case Add, Remove, Enqueue, Dequeue, Push, Pop, PopMin, PopMax:
		return true
	}
	return false
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Contains:
		return "contains"
	case Add:
		return "add"
	case Remove:
		return "remove"
	case Enqueue:
		return "enqueue"
	case Dequeue:
		return "dequeue"
	case Push:
		return "push"
	case Pop:
		return "pop"
	case RangeScan:
		return "scan"
	case Pred:
		return "pred"
	case Succ:
		return "succ"
	case PopMin:
		return "popmin"
	case PopMax:
		return "popmax"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one operation. ID is the client's request id, echoed in the
// result. For Enqueue/Push, Key is the value; for Dequeue/Pop it is
// ignored. For RangeScan, Key is the inclusive lower bound, Hi the
// exclusive upper bound, and Limit caps the result cardinality (0 =
// unlimited to a structure; the server clamps it to wire.MaxScanLimit
// first); every other kind leaves Hi and Limit zero. The field order
// keeps the struct at 32 bytes.
type Op struct {
	ID    uint64
	Key   int64
	Hi    int64
	Limit uint16
	Kind  Kind
}

// Status is the per-operation result code.
type Status uint8

// Result status codes. StatusOK is the zero value, so a structure
// filling a result never names it.
const (
	// StatusOK: the operation executed; OK/Value carry its result.
	StatusOK Status = iota
	// StatusBadKind: the kind is undefined or not supported by the
	// structure the server is serving (e.g. Push to a queue server).
	StatusBadKind
	// StatusBadKey: the key is outside the server's key space.
	StatusBadKey
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadKind:
		return "bad-kind"
	case StatusBadKey:
		return "bad-key"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Result is one operation outcome. ID echoes the op's. OK is the
// structure's boolean answer (present / was-absent / pop-nonempty …);
// Value carries the dequeued or popped value when applicable — for
// RangeScan it is the pagination cursor. Values carries a scan's keys,
// a segment of the pass's arena; on the wire an empty Values and a nil
// one encode alike, and decode as nil.
type Result struct {
	ID     uint64
	Status Status
	OK     bool
	Value  int64
	Values []int64
}
