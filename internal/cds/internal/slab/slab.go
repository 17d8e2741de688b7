// Package slab is the one memory policy of the sequential structures
// (seqlist, seqskip, seqhash): where their nodes come from, how that
// memory grows, and when a structure re-lays its nodes out in key
// order. The paper prices a traversal at L per node, and on a host L is
// a property of the layout: a walk over nodes scattered by churn is a
// chain of cache misses, a walk over nodes at ascending addresses
// streams.
package slab

import "unsafe"

// chunkBytes is one growth step. No node moves when an arena grows, so
// a structure may hold node pointers across any call.
const chunkBytes = 4 << 10

// Re-layout rule. A re-layout copies every node once, so it waits until
// more than size/relayoutDisorder inserts have landed before an
// existing node since the last one (tail appends do not count), and
// until the visits that pay for it number relayoutPaid·size: the copy
// costs at most 1/16 of the traversal work it speeds up, and an
// in-order load never triggers one.
const (
	relayoutDisorder = 64
	relayoutPaid     = 16
)

// Due reports whether a structure of size keys, with disorder
// out-of-place inserts and paid visits since its last re-layout, has
// paid for the next one.
func Due(disorder, size int, paid uint64) bool {
	return disorder > size/relayoutDisorder && paid >= relayoutPaid*uint64(size)
}

// ChunkLen is how many Ts one chunk holds.
func ChunkLen[T any]() int {
	var zero T
	return chunkBytes / int(unsafe.Sizeof(zero))
}

// Arena hands out Ts from a slab, the contiguous run the last re-layout
// wrote, and from the chunks grown since. A re-layout copies the live
// nodes in key order into Spare, sized to the capacity reached, and
// installs it with Swap, so an arena holds at most twice that capacity
// and, once both have reached a structure's high-water mark, allocates
// nothing. The zero value is an empty arena.
type Arena[T any] struct {
	slab, spare []T
	tail        []T // unused end of the newest region: the slab, or the last chunk
	grown       int // chunk capacity grown since the last Swap
}

// Fits reports whether Take(n) is served without growing a chunk.
func (a *Arena[T]) Fits(n int) bool { return len(a.tail) >= n }

// Take returns n ≤ ChunkLen[T]() contiguous Ts, with capacity n. When
// the tail cannot hold them it is abandoned for a new chunk.
func (a *Arena[T]) Take(n int) []T {
	if len(a.tail) < n {
		a.tail = make([]T, ChunkLen[T]()) // fixed 4 KiB chunk, grown only when nothing free fits; steady state recycles
		a.grown += len(a.tail)
	}
	s := a.tail[:n:n]
	a.tail = a.tail[n:]
	return s
}

// Cap is the capacity reached: the slab and the chunks grown since.
func (a *Arena[T]) Cap() int { return len(a.slab) + a.grown }

// Held is Cap plus the spare (tests).
func (a *Arena[T]) Held() int { return a.Cap() + len(a.spare) }

// Slab returns the slab the last Swap installed (tests).
func (a *Arena[T]) Slab() []T { return a.slab }

// Spare returns the slab the next re-layout copies into, grown to Cap.
func (a *Arena[T]) Spare() []T {
	if n := a.Cap(); len(a.spare) < n {
		a.spare = make([]T, n) // spare grows to the capacity reached; steady state reuses it
	}
	return a.spare
}

// Swap installs the spare, whose first used Ts a re-layout wrote, as
// the slab and hands out the rest of it next; the chunks are dropped
// and the old slab becomes the spare. The unused end is cleared so it
// keeps no old node reachable.
func (a *Arena[T]) Swap(used int) {
	clear(a.spare[used:])
	a.slab, a.spare = a.spare, a.slab
	a.tail = a.slab[used:]
	a.grown = 0
}
