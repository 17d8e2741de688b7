package wire_test

import (
	"bytes"
	"testing"

	"pimds/internal/testenv"
	"pimds/internal/wire"
)

// These tests pin the //pimvet:allocfree annotations on the wire fast
// paths with the runtime's own allocation counter: encode and decode of
// full frames must not allocate once the reusable buffers have grown to
// size. Skipped under -race (allocation accounting differs); the static
// analyzer still checks the property on every build.

func skipIfRace(t *testing.T) {
	t.Helper()
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
}

func benchOps(n int) []wire.Op {
	ops := make([]wire.Op, n)
	for i := range ops {
		ops[i] = wire.Op{ID: uint64(i), Kind: wire.Add, Key: int64(i * 3)}
	}
	return ops
}

func benchResults(n int) []wire.Result {
	results := make([]wire.Result, n)
	for i := range results {
		results[i] = wire.Result{ID: uint64(i), Status: wire.StatusOK, OK: i%2 == 0, Value: int64(i)}
	}
	return results
}

func TestRequestRoundTripAllocs(t *testing.T) {
	skipIfRace(t)
	ops := benchOps(64)
	buf := make([]byte, 0, 1<<14)
	dst := make([]wire.Op, 0, 64)
	var err error
	avg := testing.AllocsPerRun(200, func() {
		buf, err = wire.AppendRequestV2(buf[:0], ops, wire.TraceContext{})
		if err != nil {
			return
		}
		dst, _, err = wire.DecodeRequestAny(buf[4:], dst[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("request encode+decode: %.1f allocs/op, want 0", avg)
	}
}

func TestResponseRoundTripAllocs(t *testing.T) {
	skipIfRace(t)
	results := benchResults(64)
	buf := make([]byte, 0, 1<<14)
	dst := make([]wire.Result, 0, 64)
	var err error
	avg := testing.AllocsPerRun(200, func() {
		buf, err = wire.AppendResponse(buf[:0], results)
		if err != nil {
			return
		}
		dst, err = wire.DecodeResponse(buf[4:], dst[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("response encode+decode: %.1f allocs/op, want 0", avg)
	}
}

func TestRequestV2RoundTripAllocs(t *testing.T) {
	skipIfRace(t)
	ops := benchOps(64)
	for i := range ops {
		if i%4 == 0 {
			ops[i].Kind = wire.RangeScan
			ops[i].Hi = ops[i].Key + 100
			ops[i].Limit = 16
		}
	}
	tc := wire.TraceContext{TraceID: 0xfeed, Sampled: true}
	buf := make([]byte, 0, 1<<14)
	dst := make([]wire.Op, 0, 64)
	var err error
	avg := testing.AllocsPerRun(200, func() {
		buf, err = wire.AppendRequestV2(buf[:0], ops, tc)
		if err != nil {
			return
		}
		dst, _, err = wire.DecodeRequestAny(buf[4:], dst[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("traced scan request encode+decode: %.1f allocs/op, want 0", avg)
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
	dst := make([]wire.Result, 0, 64)
	arena := make([]int64, 0, 1024)
	var err error
	avg := testing.AllocsPerRun(200, func() {
		buf, err = wire.AppendResponseVar(buf[:0], results)
		if err != nil {
			return
		}
		dst, arena, err = wire.DecodeResponseAny(buf[4:], dst[:0], arena[:0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("var response encode+decode: %.1f allocs/op, want 0", avg)
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
	avg := testing.AllocsPerRun(200, func() {
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
	if avg != 0 {
		t.Errorf("ReadFrame steady state: %.1f allocs/op, want 0", avg)
	}
}
