package sim

import "fmt"

// CoreID identifies a message endpoint: a PIM core or a CPU. IDs are
// assigned by the engine at registration time and are unique within an
// engine.
type CoreID int

// NoCore is the zero CoreID meaning "no destination".
const NoCore CoreID = 0

// Message is one message between cores. The paper's model assumes a
// message fits in a cache line, so protocols keep payloads to a few
// words: a kind tag, two integer operands and an optional reference
// payload (used for batches during node migration).
//
// Messages are delivered to the receiver's buffer after Lmessage; the
// receiver processes its buffer in arrival order.
type Message struct {
	From CoreID
	To   CoreID
	Kind int   // protocol-defined request/response tag
	Key  int64 // first operand (key, value, CID, …)
	Val  int64 // second operand
	OK   bool  // success flag on responses
	// Payload carries protocol-defined extra data. Protocols that
	// need more than a cache line of payload (e.g. migration batches)
	// must send one message per cache-line-sized chunk instead.
	Payload interface{}

	// id is the engine's number for the message, assigned on every
	// send (see ID). Protocol code cannot set it: a message built
	// afresh, or resent, gets a new number.
	id uint64
}

// ID returns the number the engine gave m when it was sent: 1 for the
// engine's first message, 2 for the next, and 0 for a message never
// sent. Observers use it to pair a send with its delivery and
// consumption.
func (m Message) ID() uint64 { return m.id }

// endpoint is anything registered with the engine that can receive
// messages.
type endpoint interface {
	deliver(m Message)
	coreID() CoreID
}

// register assigns the next CoreID to ep. CoreID 0 is reserved as
// NoCore.
func (e *Engine) register(ep endpoint) CoreID {
	e.nextID++
	id := e.nextID
	e.endpoints[id] = ep
	return id
}

// lookup returns the registered endpoint for id; a message to an
// unregistered id panics.
func (e *Engine) lookup(id CoreID) endpoint {
	ep, ok := e.endpoints[id]
	if !ok {
		panic(fmt.Sprintf("sim: message to unknown core %d", id))
	}
	return ep
}

// send schedules delivery of m to m.To. sentAt is the virtual time at
// which the sender finished sending (its local clock); the message
// arrives at the receiver's buffer Lmessage later, after waiting for
// the sender's injection link if MessageGap is set. Per-channel FIFO
// is enforced: a message never arrives before an earlier message on
// the same (from, to) channel.
func (e *Engine) send(sentAt Time, m Message) {
	if m.To == NoCore {
		panic("sim: message with no destination")
	}
	injectAt := sentAt
	if e.cfg.MessageGap > 0 {
		if last, ok := e.lastInject[m.From]; ok && last+e.cfg.MessageGap > injectAt {
			injectAt = last + e.cfg.MessageGap
		}
		e.lastInject[m.From] = injectAt
	}
	key := channelKey{m.From, m.To}
	ch := e.channels[key]
	if ch == nil {
		ch = &channelState{}
		e.channels[key] = ch
	}
	arrival := injectAt + e.cfg.Lmessage
	if arrival < ch.lastArrival {
		arrival = ch.lastArrival
	}
	ch.lastArrival = arrival
	ch.sent++
	e.sent++
	m.id = e.sent
	if o := e.observer; o != nil {
		o.Observe(Event{Kind: EventSend, At: sentAt, Core: m.From, Msg: m})
	}
	dst := e.lookup(m.To)
	e.Schedule(arrival, func() { dst.deliver(m) })
}

// MessagesSent reports how many messages have been sent from one core
// to another, for tests and stats.
func (e *Engine) MessagesSent(from, to CoreID) uint64 {
	if ch := e.channels[channelKey{from, to}]; ch != nil {
		return ch.sent
	}
	return 0
}
