package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	ops := []Op{
		{ID: 0, Kind: Contains, Key: 0},
		{ID: 1, Kind: Add, Key: -5},
		{ID: math.MaxUint64, Kind: Pop, Key: math.MaxInt64},
		{ID: 42, Kind: Enqueue, Key: math.MinInt64},
	}
	buf, err := AppendRequestV2(nil, ops, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, tc, err := DecodeRequestAny(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tc != (TraceContext{}) {
		t.Errorf("untraced frame produced trace context %+v", tc)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Errorf("op %d: got %+v, want %+v", i, got[i], ops[i])
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	results := []Result{
		{ID: 7, Status: StatusOK, OK: true, Value: 99},
		{ID: 8, Status: StatusBadKind, OK: false, Value: 0},
		{ID: 9, Status: StatusBadKey, OK: false, Value: -1},
	}
	buf, err := AppendResponse(nil, results)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(results) {
		t.Fatalf("decoded %d results, want %d", len(got), len(results))
	}
	for i := range results {
		if !resultEq(got[i], results[i]) {
			t.Errorf("result %d: got %+v, want %+v", i, got[i], results[i])
		}
	}
}

// resultEq compares results field-wise; Result carries a slice and is
// no longer ==-comparable. A nil Values equals an empty one — the wire
// does not distinguish them.
func resultEq(a, b Result) bool {
	if a.ID != b.ID || a.Status != b.Status || a.OK != b.OK || a.Value != b.Value {
		return false
	}
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

func TestRequestV2RoundTrip(t *testing.T) {
	ops := []Op{
		{ID: 1, Kind: RangeScan, Key: 10, Hi: 500, Limit: 16},
		{ID: 2, Kind: Contains, Key: -4},
		{ID: 3, Kind: PopMin},
		{ID: 4, Kind: Pred, Key: math.MaxInt64},
		{ID: 5, Kind: RangeScan, Key: math.MinInt64, Hi: math.MaxInt64, Limit: math.MaxUint16},
	}
	for _, tc := range []TraceContext{
		{},
		{TraceID: 99},
		{TraceID: 0xfeed, Sampled: true},
		{TraceID: math.MaxUint64, Sampled: true},
	} {
		buf, err := AppendRequestV2(nil, ops, tc)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, gotTC, err := DecodeRequestAny(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotTC != tc {
			t.Errorf("trace context: got %+v, want %+v", gotTC, tc)
		}
		if len(got) != len(ops) {
			t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
		}
		for i := range ops {
			if got[i] != ops[i] {
				t.Errorf("op %d: got %+v, want %+v", i, got[i], ops[i])
			}
		}
		// Accepted payloads re-encode byte-identically.
		again, err := AppendRequestV2(nil, got, gotTC)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, buf) {
			t.Error("V2 decode/re-encode is not canonical")
		}
	}
}

func TestFixedEncodersRejectOrderedFields(t *testing.T) {
	if _, err := AppendResponse(nil, []Result{{ID: 1, Values: []int64{}}}); !errors.Is(err, ErrNeedsVar) {
		t.Errorf("AppendResponse with Values: got %v, want ErrNeedsVar", err)
	}
}

func TestRequestV2CanonicalTraceSlot(t *testing.T) {
	// A sampled context with a zero id is rejected at encode time…
	if _, err := AppendRequestV2(nil, nil, TraceContext{Sampled: true}); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("got %v, want ErrBadTrace", err)
	}
	// …and on the wire.
	buf, err := AppendRequestV2(nil, nil, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), payload...)
	bad[11] = 1 // sampled flag on a zero trace id
	if _, _, err := DecodeRequestAny(bad, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("sampled zero-id V2 frame: got %v, want ErrMalformed", err)
	}
	// Undefined flag bits are rejected.
	for _, flags := range []byte{2, 3, 0x80, 0xff} {
		bad := append([]byte(nil), payload...)
		bad[11] = flags
		if _, _, err := DecodeRequestAny(bad, nil); !errors.Is(err, ErrMalformed) {
			t.Fatalf("flags %#x: got %v, want ErrMalformed", flags, err)
		}
	}
}

func TestResponseVarRoundTrip(t *testing.T) {
	results := []Result{
		{ID: 1, Status: StatusOK, OK: true, Value: 640, Values: []int64{10, 20, 630}},
		{ID: 2, Status: StatusOK, OK: true, Value: 5},
		{ID: 3, Status: StatusOK, OK: true, Value: 9, Values: []int64{}},
		{ID: 4, Status: StatusBadKind},
		{ID: 5, Status: StatusOK, OK: false, Value: math.MinInt64, Values: []int64{math.MaxInt64, math.MinInt64}},
	}
	buf, err := AppendResponseVar(nil, results)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeResponseAny(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(results) {
		t.Fatalf("decoded %d results, want %d", len(got), len(results))
	}
	for i := range results {
		if !resultEq(got[i], results[i]) {
			t.Errorf("result %d: got %+v, want %+v", i, got[i], results[i])
		}
	}
	// Accepted payloads re-encode byte-identically.
	again, err := AppendResponseVar(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		t.Error("var response decode/re-encode is not canonical")
	}
}

func TestDecodeResponseAnyAcceptsFixedFrames(t *testing.T) {
	buf, err := AppendResponse(nil, []Result{{ID: 6, Status: StatusOK, OK: true, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, vals, err := DecodeResponseAny(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 6 || got[0].Values != nil {
		t.Fatalf("got %+v", got)
	}
	if vals != nil {
		t.Fatalf("fixed frame touched the arena: %v", vals)
	}
}

func TestDecodeResponseVarRejectsMalformed(t *testing.T) {
	buf, err := AppendResponseVar(nil, []Result{
		{ID: 1, Status: StatusOK, OK: true, Value: 3, Values: []int64{1, 2}},
		{ID: 2, Status: StatusOK, OK: true, Value: 0, Values: []int64{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Truncating anywhere inside the body must be caught.
	for cut := headerSize; cut < len(payload); cut++ {
		if _, _, err := DecodeResponseAny(payload[:cut], nil, nil); !errors.Is(err, ErrMalformed) {
			t.Errorf("truncated at %d: got %v, want ErrMalformed", cut, err)
		}
	}
	// Trailing bytes after the last record must be caught.
	trailing := append(append([]byte(nil), payload...), 0)
	if _, _, err := DecodeResponseAny(trailing, nil, nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing byte: got %v, want ErrMalformed", err)
	}
	// An inflated per-record value count must be caught.
	inflated := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint16(inflated[headerSize+18:], 1000)
	if _, _, err := DecodeResponseAny(inflated, nil, nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("inflated nvals: got %v, want ErrMalformed", err)
	}
	// Bad status / ok bytes are rejected, same as the fixed decoder.
	badStatus := append([]byte(nil), payload...)
	badStatus[headerSize+8] = 200
	if _, _, err := DecodeResponseAny(badStatus, nil, nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("bad status: got %v, want ErrMalformed", err)
	}
	badOK := append([]byte(nil), payload...)
	badOK[headerSize+9] = 7
	if _, _, err := DecodeResponseAny(badOK, nil, nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("bad ok byte: got %v, want ErrMalformed", err)
	}
}

func TestAppendResponseVarLimits(t *testing.T) {
	// One record with more values than the uint16 prefix can hold.
	big := []Result{{ID: 1, Values: make([]int64, 1<<16)}}
	if _, err := AppendResponseVar(nil, big); !errors.Is(err, ErrTooManyValues) {
		t.Fatalf("got %v, want ErrTooManyValues", err)
	}
	// A batch whose encoding exceeds MaxPayload is refused whole.
	results := make([]Result, MaxOpsPerFrame)
	for i := range results {
		results[i] = Result{ID: uint64(i), Values: make([]int64, MaxScanLimit)}
	}
	if _, err := AppendResponseVar(nil, results); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// A full frame of MaxScanLimit-sized scans under the budget round-trips.
	n := (MaxPayload - headerSize) / (varBaseSize + 8*MaxScanLimit)
	fit, err := AppendResponseVar(nil, results[:n])
	if err != nil {
		t.Fatalf("frame of %d max scans: %v", n, err)
	}
	payload, err := ReadFrame(bytes.NewReader(fit), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeResponseAny(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d results, want %d", len(got), n)
	}
}

func TestArenaReuseAcrossDecodes(t *testing.T) {
	buf, err := AppendResponseVar(nil, []Result{{ID: 1, Status: StatusOK, OK: true, Value: 4, Values: []int64{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]int64, 0, 64)
	res, arena, err := DecodeResponseAny(payload, nil, arena)
	if err != nil {
		t.Fatal(err)
	}
	if len(arena) != 3 || len(res[0].Values) != 3 {
		t.Fatalf("arena %v, values %v", arena, res[0].Values)
	}
	// Resetting the arena (keeping capacity) is how clients reuse it.
	res2, arena2, err := DecodeResponseAny(payload, nil, arena[:0])
	if err != nil {
		t.Fatal(err)
	}
	if &arena2[0] != &arena[:1][0] {
		t.Error("arena was reallocated despite spare capacity")
	}
	if !resultEq(res2[0], res[0]) {
		t.Errorf("got %+v, want %+v", res2[0], res[0])
	}
}

func TestEmptyFrames(t *testing.T) {
	buf, err := AppendRequestV2(nil, nil, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	ops, _, err := DecodeRequestAny(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("decoded %d ops from empty frame", len(ops))
	}
}

func TestMultipleFramesOneStream(t *testing.T) {
	var stream []byte
	var err error
	for i := 0; i < 10; i++ {
		stream, err = AppendRequestV2(stream, []Op{{ID: uint64(i), Kind: Add, Key: int64(i)}}, TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i := 0; i < 10; i++ {
		payload, err := ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = payload[:0]
		ops, _, err := DecodeRequestAny(payload, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(ops) != 1 || ops[0].ID != uint64(i) {
			t.Fatalf("frame %d: got %+v", i, ops)
		}
	}
	if _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("want clean io.EOF after last frame, got %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full, err := AppendRequestV2(nil, []Op{{ID: 1, Kind: Add, Key: 2}}, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix (except the empty one) must yield
	// io.ErrUnexpectedEOF — a peer died mid-frame.
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]), nil)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("prefix of %d bytes: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// The empty prefix is a clean close.
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxPayload+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]), nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsUndersizedLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1) // below the 3-byte header
	stream := append(hdr[:], 0)
	_, err := ReadFrame(bytes.NewReader(stream), nil)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
}

func TestDecodeRejectsCountMismatch(t *testing.T) {
	buf, err := AppendRequestV2(nil, []Op{{ID: 1, Kind: Add, Key: 2}}, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate the declared count without adding bytes.
	binary.LittleEndian.PutUint16(payload[1:], 2)
	if _, _, err := DecodeRequestAny(payload, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("got %v, want ErrMalformed", err)
	}
}

// retiredRequest frames ops the way the two retired request encodings
// did — 17-byte records (id | kind | key), preceded by a trace context
// for type 3 — so tests can show well-formed old traffic is rejected.
func retiredRequest(typ uint8, ops []Op) []byte {
	var body []byte
	if typ == 3 {
		body = binary.LittleEndian.AppendUint64(body, 0xfeedface)
		body = append(body, 1)
	}
	for _, op := range ops {
		body = binary.LittleEndian.AppendUint64(body, op.ID)
		body = append(body, byte(op.Kind))
		body = binary.LittleEndian.AppendUint64(body, uint64(op.Key))
	}
	return append(appendFrameHeader(nil, headerSize+len(body), typ, len(ops)), body...)
}

func TestDecodeRejectsWrongFrameType(t *testing.T) {
	buf, err := AppendResponse(nil, []Result{{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeRequestAny(payload, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decoding a response as a request: got %v, want ErrMalformed", err)
	}
	// Type bytes 1 and 3 are retired: frames well-formed under the old
	// layouts are rejected, whatever their record count.
	for _, typ := range []uint8{1, 3} {
		for _, ops := range [][]Op{nil, {{ID: 1, Kind: Add, Key: 2}}, {{ID: 1, Kind: Add, Key: 2}, {ID: 2, Kind: Remove, Key: -7}}} {
			payload, err := ReadFrame(bytes.NewReader(retiredRequest(typ, ops)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, err := DecodeRequestAny(payload, nil); !errors.Is(err, ErrMalformed) || len(got) != 0 {
				t.Errorf("retired type %d, %d ops: got %d ops, err %v; want ErrMalformed", typ, len(ops), len(got), err)
			}
		}
	}
}

func TestEncodeRejectsTooManyOps(t *testing.T) {
	ops := make([]Op, MaxOpsPerFrame+1)
	if _, err := AppendRequestV2(nil, ops, TraceContext{TraceID: 1}); !errors.Is(err, ErrTooManyOps) {
		t.Fatalf("got %v, want ErrTooManyOps", err)
	}
	results := make([]Result, MaxOpsPerFrame+1)
	if _, err := AppendResponse(nil, results); !errors.Is(err, ErrTooManyOps) {
		t.Fatalf("got %v, want ErrTooManyOps", err)
	}
}

func TestMaxOpsFrameRoundTrips(t *testing.T) {
	ops := make([]Op, MaxOpsPerFrame)
	for i := range ops {
		ops[i] = Op{ID: uint64(i), Kind: OpKind(i % int(numKinds)), Key: int64(i * 31)}
	}
	buf, err := AppendRequestV2(nil, ops, TraceContext{TraceID: 7, Sampled: true})
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
	if len(got) != MaxOpsPerFrame {
		t.Fatalf("decoded %d ops, want %d", len(got), MaxOpsPerFrame)
	}
}

func TestKindAndStatusStrings(t *testing.T) {
	for k := Contains; k < numKinds; k++ {
		if !k.Valid() {
			t.Errorf("kind %d should be valid", k)
		}
		if s := k.String(); s == "" || s[0] == 'O' {
			t.Errorf("kind %d has no name: %q", k, s)
		}
	}
	if numKinds.Valid() {
		t.Error("sentinel kind must be invalid")
	}
	for _, s := range []Status{StatusOK, StatusBadKind, StatusBadKey} {
		if s.String() == "" {
			t.Errorf("status %d has no name", s)
		}
	}
}
