package sim

import (
	"fmt"
	"io"
)

// Tracer observes simulator events. Install one with Engine.SetTracer;
// the zero default (nil) costs nothing. Tracers see protocol-level
// traffic, which is how the protocol tests and cmd/pimsim's -trace
// flag expose what a simulation actually did.
type Tracer interface {
	// MessageSent fires when a sender finishes sending (virtual send
	// time, before the transfer delay).
	MessageSent(at Time, m Message)
	// MessageDelivered fires when the message lands in the receiver's
	// buffer.
	MessageDelivered(at Time, m Message)
	// HandlerDone fires when a PIM core finishes serving one message:
	// busy is the virtual time the handler consumed. CPU handler runs
	// (client bookkeeping) are not reported.
	HandlerDone(at Time, core CoreID, m Message, busy Time)
}

// SetTracer installs t (nil disables tracing).
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// WriterTracer logs events as text lines, one per event — the -trace
// output of cmd/pimsim.
type WriterTracer struct {
	W io.Writer
	// KindName, if set, renders protocol kind tags symbolically.
	KindName func(kind int) string
}

func (t *WriterTracer) kind(k int) string {
	if t.KindName != nil {
		return t.KindName(k)
	}
	return fmt.Sprintf("kind=%d", k)
}

// MessageSent implements Tracer.
func (t *WriterTracer) MessageSent(at Time, m Message) {
	fmt.Fprintf(t.W, "%12v  send     %3d → %3d  %s key=%d\n", at, m.From, m.To, t.kind(m.Kind), m.Key)
}

// MessageDelivered implements Tracer.
func (t *WriterTracer) MessageDelivered(at Time, m Message) {
	fmt.Fprintf(t.W, "%12v  deliver  %3d → %3d  %s key=%d\n", at, m.From, m.To, t.kind(m.Kind), m.Key)
}

// HandlerDone implements Tracer.
func (t *WriterTracer) HandlerDone(at Time, core CoreID, m Message, busy Time) {
	fmt.Fprintf(t.W, "%12v  served   core %3d   %s key=%d busy=%v\n", at, core, t.kind(m.Kind), m.Key, busy)
}

// CountingTracer tallies events; tests use it to assert protocol
// message counts without string parsing.
type CountingTracer struct {
	Sent      uint64
	Delivered uint64
	Served    uint64
	ByKind    map[int]uint64
}

// NewCountingTracer returns an empty counting tracer.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{ByKind: make(map[int]uint64)}
}

// MessageSent implements Tracer.
func (t *CountingTracer) MessageSent(_ Time, m Message) {
	t.Sent++
	t.ByKind[m.Kind]++
}

// MessageDelivered implements Tracer.
func (t *CountingTracer) MessageDelivered(Time, Message) { t.Delivered++ }

// HandlerDone implements Tracer.
func (t *CountingTracer) HandlerDone(Time, CoreID, Message, Time) { t.Served++ }
