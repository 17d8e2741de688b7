package wire_test

import (
	"bytes"
	"testing"

	"pimds/internal/op"
	"pimds/internal/testenv"
	"pimds/internal/wire"
)

// These tests pin the wire fast paths allocation-free with the
// runtime's own allocation counter: encode and decode of full frames
// must not allocate once the reusable buffers have grown to size.
// Skipped under -race (allocation accounting differs); CI runs them in
// a step of their own without -race.

func skipIfRace(t *testing.T) {
	t.Helper()
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
}

func benchOps(n int) []op.Op {
	ops := make([]op.Op, n)
	for i := range ops {
		ops[i] = op.Op{ID: uint64(i), Kind: op.Add, Key: int64(i * 3)}
	}
	return ops
}

func benchResults(n int) []op.Result {
	results := make([]op.Result, n)
	for i := range results {
		results[i] = op.Result{ID: uint64(i), Status: op.StatusOK, OK: i%2 == 0, Value: int64(i)}
	}
	return results
}

func TestRequestRoundTripAllocs(t *testing.T) {
	skipIfRace(t)
	ops := benchOps(64)
	buf := make([]byte, 0, 1<<14)
	dst := make([]op.Op, 0, 64)
	var err error
	allocs := testenv.Allocs(200, func() {
		buf, err = wire.AppendRequestV2(buf[:0], ops, wire.TraceContext{})
		if err != nil {
			return
		}
		dst, _, err = wire.DecodeRequestAny(buf[4:], dst[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("request encode+decode: %d allocs, want 0", allocs)
	}
}

func TestResponseRoundTripAllocs(t *testing.T) {
	skipIfRace(t)
	results := benchResults(64)
	buf := make([]byte, 0, 1<<14)
	dst := make([]op.Result, 0, 64)
	var vals []int64 // point results never touch the arena
	var err error
	allocs := testenv.Allocs(200, func() {
		buf, _, err = wire.AppendResponses(buf[:0], results)
		if err != nil {
			return
		}
		dst, vals, err = wire.DecodeResponseAny(buf[4:], dst[:0], vals[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("response encode+decode: %d allocs, want 0", allocs)
	}
}

func TestRequestV2RoundTripAllocs(t *testing.T) {
	skipIfRace(t)
	ops := benchOps(64)
	for i := range ops {
		if i%4 == 0 {
			ops[i].Kind = op.RangeScan
			ops[i].Hi = ops[i].Key + 100
			ops[i].Limit = 16
		}
	}
	tc := wire.TraceContext{TraceID: 0xfeed, Sampled: true}
	buf := make([]byte, 0, 1<<14)
	dst := make([]op.Op, 0, 64)
	var err error
	allocs := testenv.Allocs(200, func() {
		buf, err = wire.AppendRequestV2(buf[:0], ops, tc)
		if err != nil {
			return
		}
		dst, _, err = wire.DecodeRequestAny(buf[4:], dst[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("traced scan request encode+decode: %d allocs, want 0", allocs)
	}
}

func TestResponseVarRoundTripAllocs(t *testing.T) {
	skipIfRace(t)
	results := benchResults(64)
	scanKeys := make([]int64, 8)
	for i := range scanKeys {
		scanKeys[i] = int64(i * 5)
	}
	for i := range results {
		if i%4 == 0 {
			results[i].Values = scanKeys
		}
	}
	buf := make([]byte, 0, 1<<14)
	dst := make([]op.Result, 0, 64)
	arena := make([]int64, 0, 1024)
	var err error
	allocs := testenv.Allocs(200, func() {
		buf, _, err = wire.AppendResponses(buf[:0], results)
		if err != nil {
			return
		}
		dst, arena, err = wire.DecodeResponseAny(buf[4:], dst[:0], arena[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("scan response encode+decode: %d allocs, want 0", allocs)
	}
}

func TestReadFrameSteadyStateAllocs(t *testing.T) {
	skipIfRace(t)
	frame, err := wire.AppendRequestV2(nil, benchOps(64), wire.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	buf := make([]byte, len(frame)) // already at the high-water mark
	allocs := testenv.Allocs(200, func() {
		r.Reset(frame)
		var rerr error
		buf, rerr = wire.ReadFrame(r, buf)
		if rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("ReadFrame steady state: %d allocs, want 0", allocs)
	}
}

// TestAppendResponsesAllocs pins the writer's encoder: a mixed batch of
// point results and scan results encodes into one frame in a warm
// buffer without touching the heap.
func TestAppendResponsesAllocs(t *testing.T) {
	skipIfRace(t)
	results := benchResults(64)
	for i := 0; i < len(results); i += 16 {
		results[i].Values = []int64{1, 2, 3}
	}
	buf := make([]byte, 0, 1<<14)
	var frames int
	var err error
	allocs := testenv.Allocs(200, func() {
		buf, frames, err = wire.AppendResponses(buf[:0], results)
	})
	if err != nil || frames != 1 {
		t.Fatalf("AppendResponses: %d frames, err %v; want 1 frame", frames, err)
	}
	if allocs != 0 {
		t.Errorf("AppendResponses: %d allocs, want 0", allocs)
	}
}

// TestOpRecordRoundTripAllocs pins the op record codec the WAL stages
// with and replays from: AppendOp into a warm buffer and DecodeOp back.
func TestOpRecordRoundTripAllocs(t *testing.T) {
	skipIfRace(t)
	o := op.Op{ID: 7, Kind: op.RangeScan, Key: 10, Hi: 90, Limit: 16}
	buf := make([]byte, 0, wire.OpRecordSize)
	var got op.Op
	var err error
	allocs := testenv.Allocs(200, func() {
		buf = wire.AppendOp(buf[:0], o)
		got, err = wire.DecodeOp(buf)
	})
	if err != nil || got != o {
		t.Fatalf("round trip: got %+v, err %v; want %+v", got, err, o)
	}
	if allocs != 0 {
		t.Errorf("AppendOp+DecodeOp: %d allocs, want 0", allocs)
	}
}
