// Fixture for the nopark analyzer: functions marked //pimvet:nopark —
// and everything they transitively call inside the module — must never
// park their goroutine. Channel operations and calls outside the
// non-parking stdlib allowlist are flagged, also when a callee makes
// them; allocation is not this analyzer's business.
package fixture

import (
	"math/bits"
	"os"
	"sync"
)

type counter struct {
	mu sync.Mutex
	n  int
	ks []int
}

// okPure does arithmetic, allowlisted stdlib calls and allocation.
//
//pimvet:nopark
func okPure(c *counter, x uint64) int {
	c.ks = append(c.ks, bits.OnesCount64(x))
	return len(c.ks)
}

//pimvet:nopark
func badLock(c *counter) {
	c.mu.Lock() // want `calls \(\*sync\.Mutex\)\.Lock, which is outside the non-parking allowlist`
	c.n++
	c.mu.Unlock() // want `calls \(\*sync\.Mutex\)\.Unlock, which is outside the non-parking allowlist`
}

// File I/O is outside the allowlist: a marked combining-window function
// can never fsync inline.
//
//pimvet:nopark
func badFile(name string) {
	_ = os.Remove(name) // want `calls os\.Remove, which is outside the non-parking allowlist`
}

//pimvet:nopark
func badSend(ch chan int) {
	ch <- 1 // want `sends on a channel`
}

//pimvet:nopark
func badRecv(ch chan int) int {
	return <-ch // want `receives from a channel`
}

//pimvet:nopark
func badSelect(ch chan int) {
	select { // want `selects on channels`
	case ch <- 1: // want `sends on a channel`
	default:
	}
}

//pimvet:nopark
func badRange(ch chan int) int {
	n := 0
	for v := range ch { // want `ranges over a channel`
		n += v
	}
	return n
}

// viaHelper reaches a lock through an unmarked helper; the chain is
// reported at the call site.
//
//pimvet:nopark
func viaHelper(c *counter) {
	helper(c) // want `calls .*helper, which calls \(\*sync\.Mutex\)\.Lock, which is outside the non-parking allowlist at nopark\.go:\d+`
}

func helper(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// viaClean reaches only clean code.
//
//pimvet:nopark
func viaClean(c *counter) int {
	return okPure(c, 7)
}

//pimvet:nopark // want `not attached to a function declaration`
var notAFunc int

//pimvet:allocfree // want `unknown //pimvet: directive`
func retiredMark() {}

// box is a generic type whose method parks.
type box[T any] struct {
	mu sync.Mutex
	v  T
}

func (b *box[T]) put(v T) {
	b.mu.Lock()
	b.v = v
	b.mu.Unlock()
}

func lockedPut[T any](b *box[T], v T) {
	b.mu.Lock()
	b.v = v
	b.mu.Unlock()
}

// viaGenericMethod reaches a lock through a method of an instantiated
// generic type: the callee is the instance, checked as its origin.
//
//pimvet:nopark
func viaGenericMethod(b *box[int]) {
	b.put(1) // want `calls .*put, which calls \(\*sync\.Mutex\)\.Lock, which is outside the non-parking allowlist at nopark\.go:\d+`
}

// viaGenericFunc reaches the same lock through a generic function.
//
//pimvet:nopark
func viaGenericFunc(b *box[int]) {
	lockedPut(b, 1) // want `calls .*lockedPut, which calls \(\*sync\.Mutex\)\.Lock, which is outside the non-parking allowlist at nopark\.go:\d+`
}
