package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestChromeWriterValidJSON(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	cw.ThreadName(1, 3, "shard 3")
	cw.Complete("apply", "span", 10.5, 2.25, 1, 3, map[string]interface{}{"trace": "0xabc"})
	cw.Emit(TraceEvent{Name: "msg", Ph: "b", Ts: 1, Pid: 1, Tid: 2, ID: "0x1"})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[1]["ph"] != "X" || events[1]["dur"] != 2.25 {
		t.Errorf("complete slice malformed: %+v", events[1])
	}
}

func TestChromeWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewChromeWriter(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%q", err, buf.String())
	}
	if len(events) != 0 {
		t.Fatalf("empty writer produced %d events", len(events))
	}
}
