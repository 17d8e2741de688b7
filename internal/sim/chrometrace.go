package sim

import (
	"fmt"
	"io"

	"pimds/internal/obs"
)

// ChromeTracer emits Chrome trace-event JSON (the format chrome://
// tracing and Perfetto load): every served request becomes a complete
// ("X") slice on its core's track, and every message transfer becomes
// an async ("b"/"e") span from send to delivery, so the UI shows
// per-core timelines with message round-trips between them.
//
// Virtual time is rendered in microseconds (the trace format's unit)
// with picosecond precision. Event encoding and array framing are
// obs.ChromeWriter's (shared with pimserve's wall-clock span export,
// so simulator and server traces open in the same viewer); the tracer
// buffers nothing and streams events as they fire. Call Close to
// terminate the JSON array; the output is a single JSON array of
// event objects.
type ChromeTracer struct {
	cw  *obs.ChromeWriter
	eng *Engine // for kind and core names; may be nil

	named map[CoreID]bool // tids with a thread_name metadata event
	first uint64          // the first traced message's ID; 0 before any send
}

// NewChromeTracer returns a tracer streaming trace events to w. eng,
// when non-nil, supplies symbolic kind names (Engine.SetKindNamer) and
// core kinds for track naming.
func NewChromeTracer(w io.Writer, eng *Engine) *ChromeTracer {
	return &ChromeTracer{cw: obs.NewChromeWriter(w), eng: eng, named: make(map[CoreID]bool)}
}

// us converts virtual time to trace microseconds.
func us(t Time) float64 { return float64(t) / 1e6 }

func (t *ChromeTracer) kind(k int) string {
	if t.eng != nil {
		return t.eng.KindName(k)
	}
	return KindNames(nil).Name(k)
}

// nameThread emits a one-time thread_name metadata event for id.
func (t *ChromeTracer) nameThread(id CoreID) {
	if t.named[id] {
		return
	}
	t.named[id] = true
	name := fmt.Sprintf("core %d", id)
	if t.eng != nil {
		switch t.eng.endpoints[id].(type) {
		case *PIMCore:
			name = fmt.Sprintf("pim core %d", id)
		case *CPU:
			name = fmt.Sprintf("cpu %d", id)
		}
	}
	t.cw.Emit(obs.TraceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: int(id),
		Args: map[string]interface{}{"name": name}})
}

// Observe implements Observer. A send opens an async span on the
// sender's track, keyed by the message's ID, and its delivery closes
// it. A PIM core's handler run becomes a complete slice ending at the
// core's local clock.
func (t *ChromeTracer) Observe(ev Event) {
	m := ev.Msg
	switch ev.Kind {
	case EventSend:
		t.nameThread(m.From)
		if t.first == 0 {
			t.first = m.id
		}
		t.cw.Emit(obs.TraceEvent{Name: t.kind(m.Kind), Cat: "msg", Ph: "b", Ts: us(ev.At),
			Pid: 1, Tid: int(m.From), ID: fmt.Sprintf("%#x", m.id),
			Args: map[string]interface{}{"key": m.Key, "to": int(m.To)}})
	case EventDeliver:
		t.nameThread(m.To)
		if t.first == 0 || m.id < t.first {
			return // sent before the tracer was attached
		}
		t.cw.Emit(obs.TraceEvent{Name: t.kind(m.Kind), Cat: "msg", Ph: "e", Ts: us(ev.At),
			Pid: 1, Tid: int(m.From), ID: fmt.Sprintf("%#x", m.id)})
	case EventHandlerEnd:
		if m.To == NoCore {
			return
		}
		t.nameThread(ev.Core)
		dur := us(ev.Dur)
		t.cw.Emit(obs.TraceEvent{Name: t.kind(m.Kind), Cat: "handler", Ph: "X",
			Ts: us(ev.At - ev.Dur), Dur: &dur, Pid: 1, Tid: int(ev.Core),
			Args: map[string]interface{}{"key": m.Key}})
	}
}

// Close terminates the JSON array and reports any write error. The
// tracer is unusable afterwards.
func (t *ChromeTracer) Close() error {
	return t.cw.Close()
}
