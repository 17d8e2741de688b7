package server

import (
	"strings"

	"pimds/internal/op"
)

// Capability declares which wire operations one structure serves and
// how they route. It is the single source of truth shared by the
// reader's per-op validation, pimload's op-mix validation, and error
// messages — adding an operation means adding one table row, not
// hunting down switch statements.
type Capability struct {
	// Name is the Config.Structure string.
	Name string

	// supports, keyed and serial are bitmasks indexed by op.Kind.
	supports uint32
	keyed    uint32
	serial   uint32
}

// kindBit builds a mask from kinds; NumKinds ≤ 32 keeps uint32 enough
// (the compile-time shift below fails to build otherwise).
func kindBit(kinds ...op.Kind) uint32 {
	var _ [32 - op.NumKinds]struct{}
	var m uint32
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Operation groups shared by the table rows.
var (
	pointSetKinds = []op.Kind{op.Contains, op.Add, op.Remove}
	orderedKinds  = []op.Kind{op.RangeScan, op.Pred, op.Succ, op.PopMin, op.PopMax}
	// globalKinds answer questions about the whole key space (smallest
	// key, nearest neighbor) that a range partition cannot answer
	// locally, so they require Shards == 1. RangeScan is not among them:
	// its Hi is clamped to the owning shard's bound and the pagination
	// cursor walks clients across shards.
	globalKinds = []op.Kind{op.Pred, op.Succ, op.PopMin, op.PopMax}
)

// capabilities is the structure table. keyed kinds are validated
// against [0, KeySpace) and routed to the key's range partition;
// serial kinds additionally require a single shard.
var capabilities = []Capability{
	{
		Name:     StructList,
		supports: kindBit(pointSetKinds...) | kindBit(orderedKinds...),
		keyed:    kindBit(pointSetKinds...) | kindBit(op.RangeScan, op.Pred, op.Succ),
		serial:   kindBit(globalKinds...),
	},
	{
		Name:     StructSkip,
		supports: kindBit(pointSetKinds...) | kindBit(orderedKinds...),
		keyed:    kindBit(pointSetKinds...) | kindBit(op.RangeScan, op.Pred, op.Succ),
		serial:   kindBit(globalKinds...),
	},
	{
		// Hashing destroys key order, so the hash structure serves only
		// the point ops.
		Name:     StructHash,
		supports: kindBit(pointSetKinds...),
		keyed:    kindBit(pointSetKinds...),
	},
	{
		Name:     StructQueue,
		supports: kindBit(op.Enqueue, op.Dequeue),
	},
	{
		Name:     StructStack,
		supports: kindBit(op.Push, op.Pop),
	},
}

// LookupCapability returns the capability row for a structure name.
func LookupCapability(structure string) (Capability, bool) {
	for _, c := range capabilities {
		if c.Name == structure {
			return c, true
		}
	}
	return Capability{}, false
}

// Structures lists the known structure names in table order.
func Structures() []string {
	names := make([]string, len(capabilities))
	for i, c := range capabilities {
		names[i] = c.Name
	}
	return names
}

// Supports reports whether the structure serves kind k.
//
//pimvet:nopark
func (c Capability) Supports(k op.Kind) bool {
	return k.Valid() && c.supports&(1<<k) != 0
}

// Keyed reports whether kind k is validated against the key space and
// routed to the key's range partition.
//
//pimvet:nopark
func (c Capability) Keyed(k op.Kind) bool {
	return k.Valid() && c.keyed&(1<<k) != 0
}

// SerialOnly reports whether kind k answers a global question and so
// requires a single-shard server.
//
//pimvet:nopark
func (c Capability) SerialOnly(k op.Kind) bool {
	return k.Valid() && c.serial&(1<<k) != 0
}

// Kinds returns the supported kinds in ascending order.
func (c Capability) Kinds() []op.Kind {
	kinds := make([]op.Kind, 0, op.NumKinds)
	for k := op.Kind(0); k.Valid(); k++ {
		if c.Supports(k) {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// KindNames renders the supported kinds for error messages, e.g.
// "contains|add|remove|scan|pred|succ|popmin|popmax".
func (c Capability) KindNames() string {
	var b strings.Builder
	for i, k := range c.Kinds() {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(k.String())
	}
	return b.String()
}
