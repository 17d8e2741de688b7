package sim

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestChromeTracerEmitsValidTraceJSON(t *testing.T) {
	var buf bytes.Buffer
	e, clients := echoSim(t, 2)
	e.SetKindNamer(func(k int) string {
		if k == 1 {
			return "Echo"
		}
		return "Resp"
	})
	ct := NewChromeTracer(&buf, e)
	e.Attach(ct)
	runEcho(e, clients, 3*Microsecond)
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array of events: %v\n%s", err, buf.String())
	}
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}

	phases := map[string]int{}
	begins := map[string]int{} // open async spans by id
	sawThreadName := false
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		switch ph {
		case "M":
			if ev["name"] == "thread_name" {
				sawThreadName = true
			}
			continue
		case "b":
			begins[ev["id"].(string)]++
		case "e":
			begins[ev["id"].(string)]--
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("X event without dur: %v", ev)
			}
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event without numeric ts: %v", ev)
		}
		name, _ := ev["name"].(string)
		if name != "Echo" && name != "Resp" {
			t.Errorf("event with unexpected name %q", name)
		}
	}
	if phases["X"] == 0 {
		t.Error("no handler slices (ph=X)")
	}
	if phases["b"] == 0 || phases["e"] == 0 {
		t.Errorf("no message spans: phases=%v", phases)
	}
	if !sawThreadName {
		t.Error("no thread_name metadata events")
	}
	for id, n := range begins {
		if n < 0 {
			t.Errorf("async span %s ended more times than it began", id)
		}
	}
}

func TestChromeTracerEmptyTraceIsValid(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTracer(&buf, nil)
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%q", err, buf.String())
	}
	if len(events) != 0 {
		t.Fatalf("expected no events, got %d", len(events))
	}
}

// TestChromeTracerAsyncSpanIDsUnique: every async message span ("b")
// must carry a fresh id, and each id must be closed ("e") exactly once
// — duplicated or recycled ids make Perfetto merge unrelated message
// flights into one span.
func TestChromeTracerAsyncSpanIDsUnique(t *testing.T) {
	var buf bytes.Buffer
	e, clients := echoSim(t, 4)
	ct := NewChromeTracer(&buf, e)
	e.Attach(ct)
	runEcho(e, clients, 5*Microsecond)
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	begun := map[string]float64{} // id -> begin ts
	ended := map[string]bool{}
	for _, ev := range events {
		id, _ := ev["id"].(string)
		ts, _ := ev["ts"].(float64)
		switch ev["ph"] {
		case "b":
			if _, dup := begun[id]; dup {
				t.Fatalf("async span id %s begun twice", id)
			}
			begun[id] = ts
		case "e":
			if _, ok := begun[id]; !ok {
				t.Fatalf("async span id %s ended without beginning", id)
			}
			if ended[id] {
				t.Fatalf("async span id %s ended twice", id)
			}
			ended[id] = true
			if ts < begun[id] {
				t.Fatalf("async span id %s ends at %v before it begins at %v", id, ts, begun[id])
			}
		}
	}
	if len(begun) < 2 {
		t.Fatalf("expected many async spans, saw %d", len(begun))
	}
	// Closed-loop clients always have one message in flight, so up to
	// one span per client may legitimately still be open at cutoff.
	if open := len(begun) - len(ended); open > 4 {
		t.Errorf("%d async spans never ended; at most one in-flight message per client expected", open)
	}
}

// TestChromeTracerDoesNotPerturb: tracing must not change virtual-time
// results.
func TestChromeTracerDoesNotPerturb(t *testing.T) {
	run := func(traced bool) (Time, uint64) {
		e, clients := echoSim(t, 3)
		if traced {
			var buf bytes.Buffer
			e.Attach(NewChromeTracer(&buf, e))
		}
		runEcho(e, clients, 3*Microsecond)
		var ops uint64
		for _, cl := range clients {
			ops += cl.Completed
		}
		return e.Now(), ops
	}
	nowA, opsA := run(false)
	nowB, opsB := run(true)
	if nowA != nowB || opsA != opsB {
		t.Errorf("chrome tracer perturbed the run: (%v,%d) vs (%v,%d)", nowA, opsA, nowB, opsB)
	}
}
