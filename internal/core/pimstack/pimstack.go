// Package pimstack applies the paper's Section 5 recipe to the other
// contended structure its introduction names — the stack ("operations
// compete for … the top pointer of a stack"). The design transplants
// Algorithm 1: the stack is a chain of segments across vaults, the core
// holding the *top* segment serves both pushes and pops (LIFO has only
// one hot end, so unlike the queue there is no two-core parallelism —
// the stack permanently lives in the paper's "short queue" regime), and
// replies are pipelined.
//
// Under the Section 3 model the comparison mirrors §5.2:
//
//	Treiber stack (CAS on top):   ≤ 1/Latomic
//	FC stack (combiner):          ≤ 1/(2·Lllc)
//	PIM stack (pipelined):        ≈ 1/Lpim
//
// so the PIM stack wins by r1·r3 and 2·r1/r2, exactly like the queue.
//
// A CPU client is a sim.Client, the simulator's one closed-loop
// client, which times, counts and profiles every operation (an empty
// pop included). The package supplies only the client's protocol: its
// belief about the top owner, owner notifications, retries and
// discovery broadcasts.
package pimstack

import (
	"fmt"

	"pimds/internal/sim"
)

// Message kinds for the stack protocol.
const (
	MsgPush = iota + 1 // Key = value
	MsgPop
	MsgPushOK
	MsgPopOK    // Key = value
	MsgPopEmpty // whole stack empty
	MsgPushFail // not the top owner: rediscover and retry
	MsgPopFail
	MsgNewTopSeg // overflow handoff: receiver creates a fresh top segment
	MsgRevertTop // underflow handoff: receiver's newest segment is top again
	MsgTopOwner  // notification to clients: From owns the top
	MsgFindTop   // client → every core
	MsgFindResp  // OK = I own the top
)

// segment is one contiguous chunk of the stack in its creator's vault.
type segment struct {
	vals       []int64
	prevSegCid sim.CoreID // core holding the segment underneath, NoCore at the bottom
}

// StackCore is one PIM core participating in the stack.
type StackCore struct {
	s    *Stack
	idx  int
	core *sim.PIMCore

	topSeg *segment
	segs   []*segment // this core's segments, newest last

	// Stats.
	Pushes    uint64
	Pops      uint64
	Overflows uint64 // handoffs up (new segment elsewhere)
	Reverts   uint64 // handoffs down (top returned here)
	Failed    uint64
	EmptyPops uint64
}

// Core exposes the underlying PIM core.
func (sc *StackCore) Core() *sim.PIMCore { return sc.core }

// Stack is the PIM-managed LIFO stack.
type Stack struct {
	eng     *sim.Engine
	cores   []*StackCore
	clients []*Client

	// Threshold is the segment length that triggers an overflow
	// handoff to the next core.
	Threshold int

	// Pipelining, as in pimqueue: when false the core stalls one
	// Lmessage after every reply.
	Pipelining bool
}

// New creates a PIM stack over n fresh PIM cores; core 0 starts with
// the (empty) bottom segment as top.
func New(e *sim.Engine, n, threshold int) *Stack {
	if n < 1 || threshold < 1 {
		panic(fmt.Sprintf("pimstack: need n (%d) >= 1 and threshold (%d) >= 1", n, threshold))
	}
	s := &Stack{eng: e, Threshold: threshold, Pipelining: true}
	for i := 0; i < n; i++ {
		sc := &StackCore{s: s, idx: i}
		sc.core = e.NewPIMCore(sc.handle)
		s.cores = append(s.cores, sc)
	}
	bottom := &segment{}
	s.cores[0].topSeg = bottom
	s.cores[0].segs = append(s.cores[0].segs, bottom)
	s.instrument()
	return s
}

// Cores returns the participating cores (stats, tests).
func (s *Stack) Cores() []*StackCore { return s.cores }

// TopOwner returns the index of the core holding the top segment, or
// -1 mid-handoff.
func (s *Stack) TopOwner() int {
	for i, sc := range s.cores {
		if sc.topSeg != nil {
			return i
		}
	}
	return -1
}

// Len returns the total number of stacked values (quiescence).
func (s *Stack) Len() int {
	total := 0
	for _, sc := range s.cores {
		for _, seg := range sc.segs {
			total += len(seg.vals)
		}
	}
	return total
}

// Drain returns all values top-first without charging simulation cost
// (quiescence, tests). It follows the prevSegCid chain over shadow
// copies of each core's segment list: a revert always resumes a core's
// newest not-yet-visited segment.
func (s *Stack) Drain() []int64 {
	owner := s.TopOwner()
	if owner < 0 {
		return nil
	}
	shadow := make(map[*StackCore][]*segment, len(s.cores))
	for _, sc := range s.cores {
		shadow[sc] = append([]*segment(nil), sc.segs...)
	}
	top := s.cores[owner]
	shadow[top] = shadow[top][:len(shadow[top])-1] // topSeg is its newest
	seg := top.topSeg

	var out []int64
	for seg != nil {
		for i := len(seg.vals) - 1; i >= 0; i-- {
			out = append(out, seg.vals[i])
		}
		if seg.prevSegCid == sim.NoCore {
			break
		}
		prevCore := s.coreByID(seg.prevSegCid)
		segs := shadow[prevCore]
		seg = segs[len(segs)-1]
		shadow[prevCore] = segs[:len(segs)-1]
	}
	return out
}

func (s *Stack) coreByID(id sim.CoreID) *StackCore {
	for _, sc := range s.cores {
		if sc.core.ID() == id {
			return sc
		}
	}
	return nil
}

// reply sends a response, honoring the pipelining switch.
func (sc *StackCore) reply(c *sim.PIMCore, m sim.Message) {
	c.Send(m)
	if !sc.s.Pipelining {
		c.Compute(sc.s.eng.Config().Lmessage)
	}
}

// handle is the PIM-core program.
func (sc *StackCore) handle(c *sim.PIMCore, m sim.Message) {
	switch m.Kind {
	case MsgPush:
		sc.handlePush(c, m)
	case MsgPop:
		sc.handlePop(c, m)
	case MsgNewTopSeg:
		// Overflow from m.From: create a fresh top segment chained
		// beneath to the sender.
		seg := &segment{prevSegCid: m.From}
		sc.topSeg = seg
		sc.segs = append(sc.segs, seg)
		sc.core.Vault().RecordAlloc()
		c.Write()
		sc.notifyClients(c)
	case MsgRevertTop:
		// Underflow: this core's newest segment is the top again.
		if len(sc.segs) == 0 {
			panic(fmt.Sprintf("pimstack: core %d asked to revert with no segments", sc.idx))
		}
		sc.topSeg = sc.segs[len(sc.segs)-1]
		c.Local()
		sc.notifyClients(c)
	case MsgFindTop:
		c.Local()
		sc.reply(c, sim.Message{To: m.From, Kind: MsgFindResp, OK: sc.topSeg != nil})
	default:
		panic(fmt.Sprintf("pimstack: core %d: unknown message kind %d", sc.idx, m.Kind))
	}
}

func (sc *StackCore) handlePush(c *sim.PIMCore, m sim.Message) {
	if sc.topSeg == nil {
		c.Local()
		sc.Failed++
		sc.reply(c, sim.Message{To: m.From, Kind: MsgPushFail})
		return
	}
	// One vault write for the value, two L1 accesses for the top
	// index — the same accounting as the queue's enqueue.
	sc.topSeg.vals = append(sc.topSeg.vals, m.Key)
	c.Write()
	c.Local()
	c.Local()
	sc.Pushes++
	c.CountOp()
	sc.reply(c, sim.Message{To: m.From, Kind: MsgPushOK})

	if len(sc.topSeg.vals) > sc.s.Threshold {
		next := sc.s.cores[(sc.idx+1)%len(sc.s.cores)]
		c.Send(sim.Message{To: next.core.ID(), Kind: MsgNewTopSeg})
		sc.topSeg = nil
		sc.Overflows++
		c.Local()
	}
}

func (sc *StackCore) handlePop(c *sim.PIMCore, m sim.Message) {
	if sc.topSeg == nil {
		c.Local()
		sc.Failed++
		sc.reply(c, sim.Message{To: m.From, Kind: MsgPopFail})
		return
	}
	if n := len(sc.topSeg.vals); n > 0 {
		v := sc.topSeg.vals[n-1]
		sc.topSeg.vals = sc.topSeg.vals[:n-1]
		c.Read()
		c.Local()
		c.Local()
		sc.Pops++
		c.CountOp()
		sc.reply(c, sim.Message{To: m.From, Kind: MsgPopOK, Key: v})
		return
	}
	prev := sc.topSeg.prevSegCid
	if prev == sim.NoCore {
		// Bottom segment empty: the stack is empty.
		c.Local()
		sc.EmptyPops++
		c.CountOp()
		sc.reply(c, sim.Message{To: m.From, Kind: MsgPopEmpty})
		return
	}
	// Underflow: discard this segment and return the top role to the
	// core underneath; the client retries there.
	sc.retireTopSeg()
	c.Send(sim.Message{To: prev, Kind: MsgRevertTop})
	sc.topSeg = nil
	sc.Reverts++
	c.Local()
	sc.Failed++
	sc.reply(c, sim.Message{To: m.From, Kind: MsgPopFail})
}

func (sc *StackCore) retireTopSeg() {
	for i := len(sc.segs) - 1; i >= 0; i-- {
		if sc.segs[i] == sc.topSeg {
			sc.segs = append(sc.segs[:i], sc.segs[i+1:]...)
			sc.core.Vault().RecordFree()
			return
		}
	}
}

func (sc *StackCore) notifyClients(c *sim.PIMCore) {
	for _, cl := range sc.s.clients {
		c.Send(sim.Message{To: cl.CPU().ID(), Kind: MsgTopOwner})
	}
}

// Role selects a stack client's behaviour.
type Role int

// Client roles.
const (
	Pusher Role = iota
	Popper
	Mixed // alternates push / pop
)

// Client is a closed-loop CPU client of the PIM stack: a sim.Client
// with the same owner-tracking / rediscovery scheme as the queue
// client.
type Client struct {
	*sim.Client
	s    *Stack
	idx  int
	role Role

	topOwner  sim.CoreID
	nextPush  bool
	seq       int64
	searching bool
	negatives int

	// Stats.
	Pushed     uint64
	Popped     uint64
	Empty      uint64
	Retries    uint64
	Discovered uint64
}

// NewClient registers a closed-loop client. Call Start to begin.
func (s *Stack) NewClient(role Role) *Client {
	cl := &Client{s: s, idx: len(s.clients), role: role}
	cl.Client = sim.NewClient(s.eng, cl.request)
	cl.OnResponse = cl.onMessage
	cl.topOwner = s.cores[0].core.ID()
	s.clients = append(s.clients, cl)
	return cl
}

// request builds the client's next operation by role; a pushed value
// encodes (client, seq).
func (cl *Client) request(*sim.CPU, uint64) sim.Message {
	push := cl.role == Pusher
	if cl.role == Mixed {
		push = cl.nextPush
		cl.nextPush = !cl.nextPush
	}
	if !push {
		return sim.Message{To: cl.topOwner, Kind: MsgPop}
	}
	v := int64(cl.idx)<<32 | cl.seq
	cl.seq++
	return sim.Message{To: cl.topOwner, Kind: MsgPush, Key: v}
}

// retry resends the in-flight request to the believed top owner; a
// failed push's value was never stored, so the same value goes again.
func (cl *Client) retry(c *sim.CPU) {
	m := cl.Request()
	m.To = cl.topOwner
	c.Send(m)
}

func (cl *Client) onMessage(c *sim.CPU, m sim.Message) bool {
	switch m.Kind {
	case MsgPushOK:
		cl.Pushed++
		return true
	case MsgPopOK:
		cl.Popped++
		return true
	case MsgPopEmpty:
		cl.Empty++
		return true
	case MsgPushFail, MsgPopFail:
		cl.Retries++
		if m.From != cl.topOwner {
			cl.retry(c)
		} else {
			cl.startSearch(c)
		}
	case MsgTopOwner:
		cl.topOwner = m.From
		c.Local()
		if cl.searching {
			cl.searching = false
			cl.Discovered++
			cl.retry(c)
		}
	case MsgFindResp:
		cl.handleFindResp(c, m)
	default:
		panic(fmt.Sprintf("pimstack: client %d: unknown message kind %d", cl.idx, m.Kind))
	}
	return false
}

func (cl *Client) startSearch(c *sim.CPU) {
	cl.searching = true
	cl.negatives = 0
	for _, sc := range cl.s.cores {
		c.Send(sim.Message{To: sc.core.ID(), Kind: MsgFindTop})
	}
}

func (cl *Client) handleFindResp(c *sim.CPU, m sim.Message) {
	if !cl.searching {
		return
	}
	if m.OK {
		cl.topOwner = m.From
		cl.searching = false
		cl.Discovered++
		cl.retry(c)
		return
	}
	cl.negatives++
	if cl.negatives >= len(cl.s.cores) {
		cl.startSearch(c)
	}
}
