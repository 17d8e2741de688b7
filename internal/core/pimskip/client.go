package pimskip

import (
	"pimds/internal/op"
	"pimds/internal/sim"
)

// Client is a closed-loop CPU client of the PIM skip-list: a sim.Client
// whose protocol state is a private copy of the sentinel directory
// (Section 4.2: "CPUs also store a copy of each sentinel node in regular
// DRAM"). It routes each request by directory lookup, resends a
// rejected request after re-reading the directory, and takes part in
// the migration protocol by applying directory updates and
// acknowledging them.
type Client struct {
	*sim.Client
	s   *SkipList
	dir *Directory

	// Stats.
	Rejections uint64
	DirUpdates uint64
}

// NewClient registers a closed-loop client issuing the operation stream
// produced by next. Call Start (or use a harness) to begin.
func (s *SkipList) NewClient(next func(seq uint64) op.Op) *Client {
	cl := &Client{s: s, dir: s.auth.Clone()}
	cl.Client = sim.NewClient(s.eng, func(c *sim.CPU, seq uint64) sim.Message {
		o := next(seq)
		// The request kinds follow op.Kind's order for the set kinds.
		return cl.route(c, sim.Message{Kind: MsgContains + int(o.Kind), Key: o.Key})
	})
	cl.OnResponse = cl.onMessage
	s.clients = append(s.clients, cl)
	return cl
}

// Directory exposes the client's private directory copy (tests).
func (cl *Client) Directory() *Directory { return cl.dir }

// route addresses m to the partition the client believes owns its key.
// The directory lookup is one last-level-cache access (the sentinels
// are hot).
func (cl *Client) route(c *sim.CPU, m sim.Message) sim.Message {
	c.LLCRead()
	m.To = cl.dir.Lookup(m.Key)
	return m
}

func (cl *Client) onMessage(c *sim.CPU, m sim.Message) bool {
	switch m.Kind {
	case MsgResp:
		return true
	case MsgReject:
		// Our directory was stale; by now the MsgDirUpdate has been
		// applied (it arrived before this rejection or will shortly);
		// re-read the directory and resend.
		cl.Rejections++
		c.Send(cl.route(c, cl.Request()))
	case MsgDirUpdate:
		cl.DirUpdates++
		c.LLCWrite()
		cl.dir.Update(m.Key, m.Val, m.Payload.(sim.CoreID))
		c.Send(sim.Message{To: m.From, Kind: MsgDirAck})
	default:
		panic("pimskip: client received unknown message kind")
	}
	return false
}
