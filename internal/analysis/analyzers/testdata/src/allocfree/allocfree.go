// Fixture for the allocfree analyzer: functions marked
// //pimvet:allocfree — and everything they transitively call inside the
// module — must not heap-allocate or block. Preallocated-scratch idioms
// (append into caller/receiver storage) pass; every allocation shape,
// channel operation and non-allowlisted stdlib call is flagged;
// justified //pimvet:allow exemptions suppress, including from a marked
// caller's chain.
package fixture

import (
	"fmt"
	"os"
)

type item struct{ k, v uint64 }

type buf struct {
	items []item
}

// okAppend appends into receiver-held scratch: the preallocated idiom.
//
//pimvet:allocfree
func okAppend(b *buf, it item) {
	b.items = append(b.items, it)
}

// okInto appends into a caller-provided destination: allowed.
//
//pimvet:allocfree
func okInto(dst []item, it item) []item {
	return append(dst, it)
}

//pimvet:allocfree
func badMake(n int) {
	_ = make([]item, n) // want `allocates via make`
}

//pimvet:allocfree
func badNew() {
	_ = new(item) // want `allocates via new`
}

//pimvet:allocfree
func badLit() {
	p := &item{k: 1} // want `heap-allocates a composite literal`
	_ = p
}

//pimvet:allocfree
func badSliceLit() int {
	s := []int{1, 2} // want `allocates a slice literal`
	return len(s)
}

//pimvet:allocfree
func badMapLit() {
	m := map[int]int{} // want `allocates a map literal`
	m[1] = 2           // want `may allocate inserting into a map`
}

//pimvet:allocfree
func badLocalAppend(n int) int {
	var local []int
	for i := 0; i < n; i++ {
		local = append(local, i) // want `appends to a function-local slice`
	}
	return len(local)
}

//pimvet:allocfree
func badClosure(n int) func() int {
	return func() int { return n } // want `allocates a closure`
}

//pimvet:allocfree
func badConcat(a, b string) string {
	return a + b // want `allocates by string concatenation`
}

//pimvet:allocfree
func badBytesToString(b []byte) string {
	return string(b) // want `allocates converting a byte/rune slice to string`
}

//pimvet:allocfree
func badStringToBytes(s string) []byte {
	return []byte(s) // want `allocates converting a string to a byte/rune slice`
}

func sink(x interface{}) { _ = x }

//pimvet:allocfree
func badArgBox(v int) {
	sink(v) // want `boxes a value into an interface argument`
}

//pimvet:allocfree
func badAssignBox(v int) {
	var x interface{}
	x = v // want `boxes a value into an interface on assignment`
	_ = x
}

type frameErr struct{ code int }

func (e frameErr) Error() string { return "frame" }

//pimvet:allocfree
func badReturnBox(code int) error {
	return frameErr{code} // want `boxes a value into an interface return`
}

//pimvet:allocfree
func badGo() {
	go nothing() // want `starts a goroutine`
}

func nothing() {}

//pimvet:allocfree
func badStdlib(n int) string {
	return fmt.Sprintf("%d", n) // want `boxes a value into an interface argument` `calls fmt\.Sprintf, which is outside the allocation-free allowlist`
}

// File I/O is outside the allowlist: a marked combining-window function
// can never fsync inline.
//
//pimvet:allocfree
func badFile(name string) {
	_ = os.Remove(name) // want `calls os\.Remove, which is outside the allocation-free allowlist`
}

//pimvet:allocfree
func badSend(ch chan int) {
	ch <- 1 // want `sends on a channel`
}

//pimvet:allocfree
func badRecv(ch chan int) int {
	return <-ch // want `receives from a channel`
}

//pimvet:allocfree
func badSelect(ch chan int) {
	select { // want `selects on channels`
	case ch <- 1: // want `sends on a channel`
	default:
	}
}

//pimvet:allocfree
func badRange(ch chan int) int {
	n := 0
	for v := range ch { // want `ranges over a channel`
		n += v
	}
	return n
}

// viaHelper reaches an allocation through a package-local helper; the
// chain is reported at the call site.
//
//pimvet:allocfree
func viaHelper(n int) []int {
	return helper(n) // want `calls .*helper, which allocates via make.* at allocfree\.go:\d+`
}

func helper(n int) []int {
	return make([]int, n)
}

var scratch []int

// viaJustified reaches an allocation exempted where it lives: the
// justified allow inside the callee suppresses the whole chain.
//
//pimvet:allocfree
func viaJustified() {
	grow()
}

func grow() {
	if cap(scratch) == 0 {
		scratch = make([]int, 0, 64) //pimvet:allow allocfree: one-time grow; steady state reuses capacity
	}
}

// okPkgAppend appends into package-level storage: amortized scratch.
//
//pimvet:allocfree
func okPkgAppend(v int) {
	scratch = scratch[:0]
	scratch = append(scratch, v)
}

//pimvet:allocfree // want `not attached to a function declaration`
var notAFunc int
