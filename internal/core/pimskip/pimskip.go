// Package pimskip implements the PIM-managed skip-list of Section 4.2:
// the key space is partitioned across k vaults, each managed by its PIM
// core; CPU clients keep a cached directory of sentinel ranges and send
// each request to the owning core. It includes the non-blocking node
// migration protocol of Section 4.2.1 for rebalancing partitions, with
// the paper's mid-migration request handling (serve locally if the key
// has not been moved yet, forward to the target if it has) and the
// CPU-notification/acknowledgement handshake.
//
// A CPU client is a sim.Client, the simulator's one closed-loop
// client, which times, counts and profiles every operation. The package
// supplies only the client's protocol: routing by its directory copy,
// resending rejected requests, and applying and acknowledging directory
// updates.
//
// The package also provides virtual-time CPU baselines (lock-free
// skip-list and partitioned flat-combining skip-list) so simulations
// can reproduce all five rows of Table 2 and Figure 4.
package pimskip

import (
	"fmt"
	"sort"

	"pimds/internal/cds/seqskip"
	"pimds/internal/sim"
)

// Message kinds for the skip-list protocol.
const (
	MsgContains = iota + 1 // request: Key = key; Val = reply-to CID when forwarded
	MsgAdd
	MsgRemove
	MsgResp   // response: OK = result, Key echoed
	MsgReject // wrong partition: client must re-look-up and resend
	MsgMigCmd // control → core: migrate [Key, Val) to Payload.(sim.CoreID)
	MsgMigStep
	MsgMigStart  // source → target: Key=low, Val=high
	MsgMigAdd    // source → target: Payload = []int64 keys, ascending
	MsgMigOwn    // source → target: ownership of [Key, Val) transfers
	MsgDirUpdate // source → client CPU: [Key, Val) now owned by Payload.(sim.CoreID)
	MsgDirAck    // client CPU → source
	MsgMigEnd    // source → target: protocol complete, range unlocked
	MsgSizeReq   // control → core: reply with partition size
	MsgSizeResp  // core → control: Val = size
)

// keyRange is a half-open key interval [Low, High).
type keyRange struct{ Low, High int64 }

func (r keyRange) contains(k int64) bool { return k >= r.Low && k < r.High }

// rangeSet is a small set of disjoint ranges.
type rangeSet []keyRange

func (rs rangeSet) containsKey(k int64) bool {
	for _, r := range rs {
		if r.contains(k) {
			return true
		}
	}
	return false
}

func (rs rangeSet) covers(low, high int64) bool {
	for _, r := range rs {
		if low >= r.Low && high <= r.High {
			return true
		}
	}
	return false
}

func (rs rangeSet) overlaps(low, high int64) bool {
	for _, r := range rs {
		if low < r.High && high > r.Low {
			return true
		}
	}
	return false
}

// remove cuts [low, high) out of the set; it must be covered by a
// single range. A split produces more ranges than it consumes, so the
// result is built in a fresh slice — reusing the input's backing array
// would overwrite elements not yet visited.
func (rs rangeSet) remove(low, high int64) rangeSet {
	out := make(rangeSet, 0, len(rs)+1)
	for _, r := range rs {
		if low >= r.Low && high <= r.High {
			if r.Low < low {
				out = append(out, keyRange{r.Low, low})
			}
			if high < r.High {
				out = append(out, keyRange{high, r.High})
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// add inserts [low, high), merging adjacent ranges.
func (rs rangeSet) add(low, high int64) rangeSet {
	out := append(rs, keyRange{low, high})
	sort.Slice(out, func(i, j int) bool { return out[i].Low < out[j].Low })
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && merged[n-1].High >= r.Low {
			if r.High > merged[n-1].High {
				merged[n-1].High = r.High
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// migration is the source-side state of one outgoing migration.
type migration struct {
	rng    keyRange
	next   int64 // smallest key not yet moved
	target sim.CoreID
	phase  int // migCopy or migNotify

	acksWanted int
	acksGot    int
	NodesMoved uint64
}

const (
	migCopy = iota
	migNotify
)

// Partition is one vault's share of the skip-list, managed by its PIM
// core.
type Partition struct {
	s    *SkipList
	idx  int
	core *sim.PIMCore
	seq  *seqskip.List

	owns     rangeSet // ranges this core currently serves
	locked   rangeSet // ranges received by migration, not yet released
	incoming rangeSet // ranges announced by MsgMigStart, nodes still arriving

	mig *migration // outgoing migration, or nil

	// Stats.
	Forwarded   uint64
	Rejected    uint64
	Migrations  uint64
	CmdsDropped uint64
}

// Core exposes the partition's PIM core.
func (p *Partition) Core() *sim.PIMCore { return p.core }

// Len returns the partition's current size.
func (p *Partition) Len() int { return p.seq.Len() }

// Owns reports whether the partition currently owns key k.
func (p *Partition) Owns(k int64) bool { return p.owns.containsKey(k) }

// SkipList is the PIM-managed partitioned skip-list.
type SkipList struct {
	eng      *sim.Engine
	keySpace int64
	parts    []*Partition
	clients  []*Client
	control  *sim.CPU

	// auth tracks authoritative ownership for Preload and tests; the
	// protocol itself uses only per-client directories and per-core
	// range sets.
	auth *Directory

	// MigBatch is the number of keys per migration message (the paper
	// sends nodes one by one; up to ~8 keys fit the cache-line-sized
	// message bound). One MsgMigStep moves one batch.
	MigBatch int

	// Rebalance, when non-nil, enables automatic splitting: after an
	// add that leaves a partition larger than MaxLen, the core moves
	// the upper half of its largest owned range to the currently
	// smallest partition.
	Rebalance *RebalanceConfig

	// RemoteMigration transfers nodes by direct remote-vault writes
	// instead of MsgMigAdd messages — the alternative architecture of
	// Section 2 footnote 2. Requires the engine's LpimRemote to be
	// positive; the control handshake (start / ownership / directory
	// updates / end) is unchanged.
	RemoteMigration bool
}

// RebalanceConfig tunes automatic rebalancing — the two schemes of
// §4.2.1: split a partition that grew past MaxLen, and merge a
// partition that shrank below MinLen into the neighbor owning the
// adjacent key range (if that neighbor is also small).
type RebalanceConfig struct {
	// MaxLen, when positive, splits a partition larger than this.
	MaxLen int
	// MinLen, when positive, merges a partition smaller than this
	// into an adjacent partition that is also below MinLen.
	MinLen int
}

// New builds a PIM skip-list over [0, keySpace) with k partitions, each
// on its own fresh PIM core.
func New(e *sim.Engine, keySpace int64, k int, seed uint64) *SkipList {
	if k < 1 || keySpace < int64(k) {
		panic(fmt.Sprintf("pimskip: need 1 <= k (%d) <= keySpace (%d)", k, keySpace))
	}
	s := &SkipList{eng: e, keySpace: keySpace, MigBatch: 1}
	cores := make([]sim.CoreID, k)
	for i := 0; i < k; i++ {
		p := &Partition{s: s, idx: i, seq: seqskip.New(seed + uint64(i)*0x9e3779b9)}
		p.core = e.NewPIMCore(p.handle)
		low := int64(i) * keySpace / int64(k)
		high := int64(i+1) * keySpace / int64(k)
		p.owns = p.owns.add(low, high)
		s.parts = append(s.parts, p)
		cores[i] = p.core.ID()
	}
	s.auth = NewDirectory(keySpace, cores)
	s.control = e.NewCPU(func(c *sim.CPU, m sim.Message) {})
	s.instrument()
	return s
}

// Partitions returns the partitions (tests, stats).
func (s *SkipList) Partitions() []*Partition { return s.parts }

// Ops sums operations served over the partitions' PIM cores; a
// snapshot function for sim.Measure.
func (s *SkipList) Ops() func() uint64 {
	cores := make([]*sim.PIMCore, len(s.parts))
	for i, p := range s.parts {
		cores[i] = p.core
	}
	return sim.OpsOfPIMCores(cores)
}

// Preload inserts keys at no simulated cost, routing by the *initial*
// partition layout (auth is not updated by migrations). Call before
// the simulation starts and before any migration.
func (s *SkipList) Preload(keys []int64) {
	for _, k := range keys {
		core := s.auth.Lookup(k)
		for _, p := range s.parts {
			if p.core.ID() == core {
				p.seq.AddKey(k)
				break
			}
		}
	}
}

// TotalLen returns the number of keys across all partitions.
func (s *SkipList) TotalLen() int {
	total := 0
	for _, p := range s.parts {
		total += p.seq.Len()
	}
	return total
}

// Keys returns all keys in ascending order at quiescence (tests).
func (s *SkipList) Keys() []int64 {
	var keys []int64
	for _, p := range s.parts {
		keys = append(keys, p.seq.Keys()...)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// TriggerMigration instructs partition fromIdx (via a control-plane
// message) to migrate [low, high) to partition toIdx. The core drops
// the command if it does not currently own the whole range, is already
// migrating, or the range is locked by an unfinished inbound migration.
func (s *SkipList) TriggerMigration(fromIdx int, low, high int64, toIdx int) {
	from := s.parts[fromIdx]
	target := s.parts[toIdx].core.ID()
	s.control.Exec(func(c *sim.CPU) {
		c.Send(sim.Message{
			To: from.core.ID(), Kind: MsgMigCmd,
			Key: low, Val: high, Payload: target,
		})
	})
}

// partByCore maps a core ID back to its partition.
func (s *SkipList) partByCore(id sim.CoreID) *Partition {
	for _, p := range s.parts {
		if p.core.ID() == id {
			return p
		}
	}
	return nil
}

// handle is the PIM-core program: the full Section 4.2 protocol.
func (p *Partition) handle(c *sim.PIMCore, m sim.Message) {
	switch m.Kind {
	case MsgContains, MsgAdd, MsgRemove:
		p.handleOp(c, m)
	case MsgMigCmd:
		p.handleMigCmd(c, m)
	case MsgMigStep:
		p.migStep(c)
	case MsgMigStart:
		c.Local()
		p.incoming = p.incoming.add(m.Key, m.Val)
	case MsgMigAdd:
		for _, k := range m.Payload.([]int64) {
			p.seq.ResetSteps()
			if p.seq.AddKey(k) {
				c.Write()
			}
			c.ReadN(int(p.seq.Steps()))
		}
	case MsgMigOwn:
		c.Local()
		p.incoming = p.incoming.remove(m.Key, m.Val)
		p.owns = p.owns.add(m.Key, m.Val)
		p.locked = p.locked.add(m.Key, m.Val)
	case MsgMigEnd:
		c.Local()
		p.locked = p.locked.remove(m.Key, m.Val)
	case MsgDirAck:
		p.handleDirAck(c)
	case MsgSizeReq:
		c.Local()
		c.Send(sim.Message{To: m.From, Kind: MsgSizeResp, Val: int64(p.seq.Len())})
	default:
		panic(fmt.Sprintf("pimskip: partition %d: unknown message kind %d", p.idx, m.Kind))
	}
}

// replyTo returns the CPU a response should go to: the forwarder
// records the original requester in Val.
func replyTo(m sim.Message) sim.CoreID {
	if m.Val != 0 {
		return sim.CoreID(m.Val)
	}
	return m.From
}

func (p *Partition) handleOp(c *sim.PIMCore, m sim.Message) {
	k := m.Key
	if p.mig != nil && p.mig.rng.contains(k) {
		if k < p.mig.next {
			// Node (if any) already moved: forward to the target,
			// which replies to the requester directly (§4.2.1).
			fwd := m
			fwd.To = p.mig.target
			if fwd.Val == 0 {
				fwd.Val = int64(m.From)
			}
			c.Local()
			c.Send(fwd)
			p.Forwarded++
			return
		}
		// Not yet moved: serve locally below.
	} else if !p.owns.containsKey(k) && !p.incoming.containsKey(k) {
		// Stale client directory: reject so it re-looks-up (§4.2.1).
		c.Local()
		c.Send(sim.Message{To: replyTo(m), Kind: MsgReject, Key: k})
		p.Rejected++
		return
	}

	p.seq.ResetSteps()
	var result bool
	mutated := false
	switch m.Kind {
	case MsgContains:
		result = p.seq.ContainsKey(k)
	case MsgAdd:
		result = p.seq.AddKey(k)
		mutated = result
	case MsgRemove:
		result = p.seq.RemoveKey(k)
		mutated = result
	}
	c.ReadN(int(p.seq.Steps()))
	if mutated {
		c.Write()
	}
	c.Send(sim.Message{To: replyTo(m), Kind: MsgResp, Key: k, OK: result})
	c.CountOp()

	if m.Kind == MsgAdd && result {
		p.maybeAutoSplit(c)
	}
	if m.Kind == MsgRemove && result {
		p.maybeAutoMerge(c)
	}
}

func (p *Partition) handleMigCmd(c *sim.PIMCore, m sim.Message) {
	low, high := m.Key, m.Val
	target := m.Payload.(sim.CoreID)
	c.Local()
	if p.mig != nil || low >= high || !p.owns.covers(low, high) ||
		p.locked.overlaps(low, high) || target == p.core.ID() {
		p.CmdsDropped++
		return
	}
	p.beginMigration(c, keyRange{low, high}, target)
}

// beginMigration arms the outgoing-migration state and kicks the
// incremental copy loop with a self-message, so request service
// interleaves with migration steps. Callers must have validated
// ownership and locking.
func (p *Partition) beginMigration(c *sim.PIMCore, rng keyRange, target sim.CoreID) {
	p.mig = &migration{rng: rng, next: rng.Low, target: target}
	p.Migrations++
	c.Send(sim.Message{To: target, Kind: MsgMigStart, Key: rng.Low, Val: rng.High})
	c.Send(sim.Message{To: p.core.ID(), Kind: MsgMigStep})
}

// migStep moves one batch of nodes, then either reschedules itself or
// finishes the copy phase: transfer ownership, notify every client CPU
// and wait for their acks.
func (p *Partition) migStep(c *sim.PIMCore) {
	mig := p.mig
	if mig == nil || mig.phase != migCopy {
		return // stale step message
	}
	batch := p.s.MigBatch
	if batch < 1 {
		batch = 1
	}
	var keys []int64
	for len(keys) < batch {
		p.seq.ResetSteps()
		k, ok := p.seq.Successor(mig.next)
		c.ReadN(int(p.seq.Steps()))
		if !ok || k >= mig.rng.High {
			break
		}
		p.seq.ResetSteps()
		p.seq.RemoveKey(k)
		c.ReadN(int(p.seq.Steps()))
		c.Write()
		keys = append(keys, k)
		mig.next = k + 1
		mig.NodesMoved++
	}
	if len(keys) > 0 {
		if p.s.RemoteMigration {
			// Footnote-2 mode: insert directly into the target vault
			// at remote latency instead of messaging the keys over.
			tp := p.s.partByCore(mig.target)
			for _, k := range keys {
				tp.seq.ResetSteps()
				added := tp.seq.AddKey(k)
				for i := uint64(0); i < tp.seq.Steps(); i++ {
					c.RemoteRead(tp.core.Vault())
				}
				if added {
					c.RemoteWrite(tp.core.Vault())
				}
			}
		} else {
			c.Send(sim.Message{To: mig.target, Kind: MsgMigAdd, Payload: keys})
		}
	}
	if len(keys) == batch {
		// Possibly more nodes; take another step after serving any
		// queued requests.
		c.Send(sim.Message{To: p.core.ID(), Kind: MsgMigStep})
		return
	}

	// Copy phase done: everything in the range is at the target.
	mig.next = mig.rng.High
	p.owns = p.owns.remove(mig.rng.Low, mig.rng.High)
	c.Send(sim.Message{To: mig.target, Kind: MsgMigOwn, Key: mig.rng.Low, Val: mig.rng.High})
	mig.phase = migNotify
	mig.acksWanted = len(p.s.clients)
	if mig.acksWanted == 0 {
		p.finishMigration(c)
		return
	}
	for _, cl := range p.s.clients {
		c.Send(sim.Message{
			To: cl.CPU().ID(), Kind: MsgDirUpdate,
			Key: mig.rng.Low, Val: mig.rng.High, Payload: mig.target,
		})
	}
}

func (p *Partition) handleDirAck(c *sim.PIMCore) {
	c.Local()
	mig := p.mig
	if mig == nil || mig.phase != migNotify {
		return
	}
	mig.acksGot++
	if mig.acksGot == mig.acksWanted {
		p.finishMigration(c)
	}
}

func (p *Partition) finishMigration(c *sim.PIMCore) {
	mig := p.mig
	c.Send(sim.Message{To: mig.target, Kind: MsgMigEnd, Key: mig.rng.Low, Val: mig.rng.High})
	p.mig = nil
}

// maybeAutoSplit initiates a split when this partition has grown past
// the configured bound. Picking the lightest target partition is a
// control-plane decision; a deployment would make it on a CPU-side
// supervisor from size queries (MsgSizeReq), which tests exercise
// explicitly. The migration itself runs entirely through the message
// protocol.
func (p *Partition) maybeAutoSplit(c *sim.PIMCore) {
	cfg := p.s.Rebalance
	if cfg == nil || cfg.MaxLen <= 0 || p.mig != nil || p.seq.Len() <= cfg.MaxLen {
		return
	}
	// Largest owned range.
	var best keyRange
	for _, r := range p.owns {
		if r.High-r.Low > best.High-best.Low {
			best = r
		}
	}
	mid := best.Low + (best.High-best.Low)/2
	if mid <= best.Low || p.locked.overlaps(mid, best.High) {
		return
	}
	// Lightest other partition.
	var target *Partition
	for _, q := range p.s.parts {
		if q == p {
			continue
		}
		if target == nil || q.seq.Len() < target.seq.Len() {
			target = q
		}
	}
	if target == nil {
		return
	}
	p.beginMigration(c, keyRange{mid, best.High}, target.core.ID())
}

// maybeAutoMerge initiates the second §4.2.1 scheme: when this
// partition and the partition owning the adjacent key range are both
// small, move one of this partition's ranges there, emptying it over
// time. Neighbor-size inspection is the same control-plane shortcut as
// in maybeAutoSplit.
func (p *Partition) maybeAutoMerge(c *sim.PIMCore) {
	cfg := p.s.Rebalance
	if cfg == nil || cfg.MinLen <= 0 || p.mig != nil ||
		p.seq.Len() >= cfg.MinLen || len(p.owns) == 0 {
		return
	}
	r := p.owns[0]
	if p.locked.overlaps(r.Low, r.High) {
		return
	}
	var neighbor *Partition
	if r.High < p.s.keySpace {
		neighbor = p.s.partOwning(r.High)
	}
	if neighbor == nil && r.Low > 0 {
		neighbor = p.s.partOwning(r.Low - 1)
	}
	if neighbor == nil || neighbor == p || neighbor.seq.Len() >= cfg.MinLen {
		return
	}
	p.beginMigration(c, r, neighbor.core.ID())
}

// partOwning returns the partition currently owning key k, or nil
// mid-migration.
func (s *SkipList) partOwning(k int64) *Partition {
	for _, p := range s.parts {
		if p.owns.containsKey(k) {
			return p
		}
	}
	return nil
}
