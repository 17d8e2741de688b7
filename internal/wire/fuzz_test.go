package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary byte streams through the full read
// path (ReadFrame, then every decoder). The decoders must never panic
// or hand back more records than the payload can hold; whatever they
// accept must re-encode to the identical payload. Seeds 1 and 3-5 are
// well-formed frames of the retired request encodings (type bytes 1
// and 3), which must now be rejected.
func FuzzDecodeFrame(f *testing.F) {
	seed1 := retiredRequest(1, []Op{{ID: 1, Kind: Add, Key: 7}, {ID: 2, Kind: Remove, Key: -7}})
	seed2, _ := AppendResponse(nil, []Result{{ID: 3, Status: StatusOK, OK: true, Value: 9}})
	seed3 := retiredRequest(1, nil)
	seed4 := retiredRequest(3, []Op{{ID: 4, Kind: Contains, Key: 11}})
	seed5 := retiredRequest(3, nil)
	seed6, _ := AppendRequestV2(nil, []Op{
		{ID: 5, Kind: RangeScan, Key: 3, Hi: 900, Limit: 32},
		{ID: 6, Kind: PopMin},
	}, TraceContext{})
	seed7, _ := AppendRequestV2(nil, []Op{{ID: 7, Kind: Succ, Key: -1}}, TraceContext{TraceID: 0xabc, Sampled: true})
	seed8, _ := AppendResponseVar(nil, []Result{
		{ID: 8, Status: StatusOK, OK: true, Value: 40, Values: []int64{12, 17, 39}},
		{ID: 9, Status: StatusOK, OK: false, Value: 0},
	})
	seed9, _ := AppendResponseVar(nil, nil)
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(seed4)
	f.Add(seed5)
	f.Add(seed6)
	f.Add(seed7)
	f.Add(seed8)
	f.Add(seed9)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0})
	// Sampled flag on a zero trace id: well-framed but non-canonical.
	f.Add([]byte{12, 0, 0, 0, FrameRequestV2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	// Var response declaring one record but carrying no body: truncated.
	f.Add([]byte{3, 0, 0, 0, FrameResponseVar, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if ops, tc, err := DecodeRequestAny(payload, nil); err == nil {
			re, err := AppendRequestV2(nil, ops, tc)
			if err != nil {
				t.Fatalf("accepted frame fails to re-encode: %v", err)
			}
			if !bytes.Equal(re[4:], payload) {
				t.Fatalf("request round-trip mismatch:\n in: %x\nout: %x", payload, re[4:])
			}
		}
		if results, err := DecodeResponse(payload, nil); err == nil {
			re, err := AppendResponse(nil, results)
			if err != nil {
				t.Fatalf("accepted frame fails to re-encode: %v", err)
			}
			if !bytes.Equal(re[4:], payload) {
				t.Fatalf("response round-trip mismatch:\n in: %x\nout: %x", payload, re[4:])
			}
		}
		if results, _, err := DecodeResponseAny(payload, nil, nil); err == nil {
			var re []byte
			if payload[0] == FrameResponseVar {
				re, err = AppendResponseVar(nil, results)
			} else {
				re, err = AppendResponse(nil, results)
			}
			if err != nil {
				t.Fatalf("accepted frame fails to re-encode: %v", err)
			}
			if !bytes.Equal(re[4:], payload) {
				t.Fatalf("response-any round-trip mismatch:\n in: %x\nout: %x", payload, re[4:])
			}
		}
	})
}

// FuzzRequestRoundTrip drives structured requests through
// encode→frame→decode and checks exact reproduction.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), int64(5), uint64(2), uint8(3), int64(-9))
	f.Add(uint64(0), uint8(255), int64(0), uint64(1<<63), uint8(6), int64(1<<62))

	f.Fuzz(func(t *testing.T, id1 uint64, k1 uint8, key1 int64, id2 uint64, k2 uint8, key2 int64) {
		ops := []Op{
			{ID: id1, Kind: OpKind(k1), Key: key1},
			{ID: id2, Kind: OpKind(k2), Key: key2},
		}
		buf, err := AppendRequestV2(nil, ops, TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeRequestAny(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != ops[0] || got[1] != ops[1] {
			t.Fatalf("round trip: got %+v, want %+v", got, ops)
		}
		// The stream must end on a clean frame boundary.
		r := bytes.NewReader(buf)
		if _, err := ReadFrame(r, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrame(r, nil); err != io.EOF {
			t.Fatalf("want io.EOF at stream end, got %v", err)
		}
	})
}
