package sim

import (
	"fmt"
	"io"
)

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

// Observe implements Observer: one line per send, delivery and message
// a PIM core served.
func (t *WriterTracer) Observe(ev Event) {
	m := ev.Msg
	switch {
	case ev.Kind == EventSend:
		fmt.Fprintf(t.W, "%12v  send     %3d → %3d  %s key=%d\n", ev.At, m.From, m.To, t.kind(m.Kind), m.Key)
	case ev.Kind == EventDeliver:
		fmt.Fprintf(t.W, "%12v  deliver  %3d → %3d  %s key=%d\n", ev.At, m.From, m.To, t.kind(m.Kind), m.Key)
	case ev.Kind == EventHandlerEnd && m.To != NoCore:
		fmt.Fprintf(t.W, "%12v  served   core %3d   %s key=%d busy=%v\n", ev.At, ev.Core, t.kind(m.Kind), m.Key, ev.Dur)
	}
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

// Observe implements Observer.
func (t *CountingTracer) Observe(ev Event) {
	switch {
	case ev.Kind == EventSend:
		t.Sent++
		t.ByKind[ev.Msg.Kind]++
	case ev.Kind == EventDeliver:
		t.Delivered++
	case ev.Kind == EventHandlerEnd && ev.Msg.To != NoCore:
		t.Served++
	}
}
