package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"pimds/internal/op"
)

func TestRequestRoundTrip(t *testing.T) {
	ops := []op.Op{
		{ID: 0, Kind: op.Contains, Key: 0},
		{ID: 1, Kind: op.Add, Key: -5},
		{ID: math.MaxUint64, Kind: op.Pop, Key: math.MaxInt64},
		{ID: 42, Kind: op.Enqueue, Key: math.MinInt64},
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
	results := []op.Result{
		{ID: 7, Status: op.StatusOK, OK: true, Value: 99},
		{ID: 8, Status: op.StatusBadKind, OK: false, Value: 0},
		{ID: 9, Status: op.StatusBadKey, OK: false, Value: -1},
	}
	buf := appendOneFrame(t, results)
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := headerSize + len(results)*resultSize; len(payload) != want {
		t.Errorf("payload of %d point results is %d bytes, want %d", len(results), len(payload), want)
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
}

// appendOneFrame encodes results with AppendResponses and fails the
// test unless they fit one frame.
func appendOneFrame(t *testing.T, results []op.Result) []byte {
	t.Helper()
	buf, frames, err := AppendResponses(nil, results)
	if err != nil || frames != 1 {
		t.Fatalf("AppendResponses: %d frames, err %v; want 1 frame", frames, err)
	}
	return buf
}

// resultEq compares results field-wise; Result carries a slice and is
// no longer ==-comparable. A nil Values equals an empty one — the wire
// does not distinguish them.
func resultEq(a, b op.Result) bool {
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
	ops := []op.Op{
		{ID: 1, Kind: op.RangeScan, Key: 10, Hi: 500, Limit: 16},
		{ID: 2, Kind: op.Contains, Key: -4},
		{ID: 3, Kind: op.PopMin},
		{ID: 4, Kind: op.Pred, Key: math.MaxInt64},
		{ID: 5, Kind: op.RangeScan, Key: math.MinInt64, Hi: math.MaxInt64, Limit: math.MaxUint16},
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
	results := []op.Result{
		{ID: 1, Status: op.StatusOK, OK: true, Value: 640, Values: []int64{10, 20, 630}},
		{ID: 2, Status: op.StatusOK, OK: true, Value: 5},
		{ID: 3, Status: op.StatusOK, OK: true, Value: 9, Values: []int64{}},
		{ID: 4, Status: op.StatusBadKind},
		{ID: 5, Status: op.StatusOK, OK: false, Value: math.MinInt64, Values: []int64{math.MaxInt64, math.MinInt64}},
	}
	buf := appendOneFrame(t, results)
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
	if again := appendOneFrame(t, got); !bytes.Equal(again, buf) {
		t.Error("response decode/re-encode is not canonical")
	}
}

// TestDecodeResponseAnyAcceptsFixedFrames: what the retired fixed-size
// frame guaranteed still holds — a frame of point results decodes with
// nil Values and leaves the arena untouched.
func TestDecodeResponseAnyAcceptsFixedFrames(t *testing.T) {
	payload, err := ReadFrame(bytes.NewReader(appendOneFrame(t, []op.Result{
		{ID: 6, Status: op.StatusOK, OK: true, Value: 1},
		{ID: 7, Status: op.StatusBadKey, Value: -3},
	})), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, vals, err := DecodeResponseAny(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 6 || got[1].ID != 7 || got[0].Values != nil || got[1].Values != nil {
		t.Fatalf("got %+v", got)
	}
	if vals != nil {
		t.Fatalf("point frame touched the arena: %v", vals)
	}
	arena := append(make([]int64, 0, 4), 42)
	if _, vals, err = DecodeResponseAny(payload, nil, arena); err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || cap(vals) != 4 || &vals[0] != &arena[0] {
		t.Fatalf("point frame touched the arena: len %d cap %d", len(vals), cap(vals))
	}
}

func TestDecodeResponseVarRejectsMalformed(t *testing.T) {
	buf := appendOneFrame(t, []op.Result{
		{ID: 1, Status: op.StatusOK, OK: true, Value: 3, Values: []int64{1, 2}},
		{ID: 2, Status: op.StatusOK, OK: true, Value: 0, Values: []int64{}},
		{ID: 3, Status: op.StatusOK, OK: true, Value: 5, Values: []int64{9}},
	})
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every rejection must hand dst and vals back at their input
	// lengths, with nothing of the bad frame appended. Both start
	// non-empty so a reset to zero would show too.
	reject := func(what string, bad []byte) {
		t.Helper()
		dst := append(make([]op.Result, 0, 8), op.Result{ID: 99})
		vals := append(make([]int64, 0, 8), 77)
		gotDst, gotVals, err := DecodeResponseAny(bad, dst, vals)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", what, err)
		}
		if len(gotDst) != 1 || gotDst[0].ID != 99 || len(gotVals) != 1 || gotVals[0] != 77 {
			t.Errorf("%s: rejection left dst %+v, vals %v; want them at their input lengths", what, gotDst, gotVals)
		}
	}
	// Truncating anywhere inside the body must be caught.
	for cut := headerSize; cut < len(payload); cut++ {
		reject(fmt.Sprintf("truncated at %d", cut), payload[:cut])
	}
	// Trailing bytes after the last record must be caught.
	reject("trailing byte", append(append([]byte(nil), payload...), 0))
	reject("trailing value", append(append([]byte(nil), payload...), make([]byte, 8)...))
	// An inflated per-record value count must be caught.
	inflated := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint16(inflated[headerSize+18:], 1000)
	reject("inflated nvals", inflated)
	// A deflated count leaves the values it no longer covers as a
	// misaligned walk.
	deflated := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint16(deflated[headerSize+18:], 1)
	reject("deflated nvals", deflated)
	// Bad status / ok bytes are rejected, in the last record as well,
	// after earlier records were decoded.
	last := len(payload) - resultSize - 8
	for _, off := range []int{headerSize, last} {
		badStatus := append([]byte(nil), payload...)
		badStatus[off+8] = 200
		reject(fmt.Sprintf("bad status at %d", off), badStatus)
		badOK := append([]byte(nil), payload...)
		badOK[off+9] = 7
		reject(fmt.Sprintf("bad ok byte at %d", off), badOK)
	}
	// A count past MaxOpsPerFrame is rejected before any record.
	tooMany := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint16(tooMany[1:], MaxOpsPerFrame+1)
	reject("count over MaxOpsPerFrame", tooMany)
}

func TestAppendResponseVarLimits(t *testing.T) {
	// One record with more values than the uint16 prefix can hold.
	big := []op.Result{{ID: 1, Values: make([]int64, 1<<16)}}
	if _, _, err := AppendResponses(nil, big); !errors.Is(err, ErrTooManyValues) {
		t.Fatalf("got %v, want ErrTooManyValues", err)
	}
	// A full frame of MaxScanLimit-sized scans under the budget is one
	// frame and round-trips.
	results := make([]op.Result, MaxOpsPerFrame)
	for i := range results {
		results[i] = op.Result{ID: uint64(i), Values: make([]int64, MaxScanLimit)}
	}
	n := (MaxPayload - headerSize) / (resultSize + 8*MaxScanLimit)
	payload, err := ReadFrame(bytes.NewReader(appendOneFrame(t, results[:n])), nil)
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
	// A batch whose encoding exceeds MaxPayload splits into frames that
	// each stay under it.
	buf, frames, err := AppendResponses(nil, results)
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(results) + n - 1) / n; frames != want {
		t.Fatalf("%d max scans: %d frames, want %d", len(results), frames, want)
	}
	r := bytes.NewReader(buf)
	decoded := 0
	for i := 0; i < frames; i++ {
		payload, err := ReadFrame(r, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, _, err := DecodeResponseAny(payload, nil, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		decoded += len(got)
	}
	if decoded != len(results) {
		t.Fatalf("decoded %d results across %d frames, want %d", decoded, frames, len(results))
	}
}

func TestArenaReuseAcrossDecodes(t *testing.T) {
	buf := appendOneFrame(t, []op.Result{{ID: 1, Status: op.StatusOK, OK: true, Value: 4, Values: []int64{1, 2, 3}}})
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
	// No results encode as no frame at all; an empty response frame
	// still decodes, to nothing.
	if buf, frames, err := AppendResponses(nil, nil); err != nil || frames != 0 || len(buf) != 0 {
		t.Fatalf("AppendResponses(nil): %d frames, %d bytes, err %v; want none", frames, len(buf), err)
	}
	results, vals, err := DecodeResponseAny(appendFrameHeader(nil, headerSize, FrameResponse, 0)[4:], nil, nil)
	if err != nil || len(results) != 0 || vals != nil {
		t.Fatalf("empty response frame: %d results, arena %v, err %v", len(results), vals, err)
	}
}

func TestMultipleFramesOneStream(t *testing.T) {
	var stream []byte
	var err error
	for i := 0; i < 10; i++ {
		stream, err = AppendRequestV2(stream, []op.Op{{ID: uint64(i), Kind: op.Add, Key: int64(i)}}, TraceContext{})
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
	full, err := AppendRequestV2(nil, []op.Op{{ID: 1, Kind: op.Add, Key: 2}}, TraceContext{})
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
	buf, err := AppendRequestV2(nil, []op.Op{{ID: 1, Kind: op.Add, Key: 2}}, TraceContext{})
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
func retiredRequest(typ uint8, ops []op.Op) []byte {
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

// retiredResponse frames results the way the retired fixed-size
// response encoding (type 2) did — 18-byte records without a value
// count — so tests can show well-formed old replies are rejected.
func retiredResponse(results []op.Result) []byte {
	var body []byte
	for _, res := range results {
		body = binary.LittleEndian.AppendUint64(body, res.ID)
		ok := byte(0)
		if res.OK {
			ok = 1
		}
		body = append(body, byte(res.Status), ok)
		body = binary.LittleEndian.AppendUint64(body, uint64(res.Value))
	}
	return append(appendFrameHeader(nil, headerSize+len(body), 2, len(results)), body...)
}

func TestDecodeRejectsWrongFrameType(t *testing.T) {
	payload, err := ReadFrame(bytes.NewReader(appendOneFrame(t, []op.Result{{ID: 1}})), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeRequestAny(payload, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decoding a response as a request: got %v, want ErrMalformed", err)
	}
	req, err := AppendRequestV2(nil, []op.Op{{ID: 1, Kind: op.Add, Key: 2}}, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeResponseAny(req[4:], nil, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("decoding a request as a response: got %v, want ErrMalformed", err)
	}
	// Type byte 2 is retired: frames well-formed under the fixed-size
	// response layout are rejected, whatever their record count.
	for _, results := range [][]op.Result{nil, {{ID: 1, Status: op.StatusOK, OK: true, Value: 5}}, {{ID: 1}, {ID: 2, Status: op.StatusBadKey, Value: -7}}} {
		payload, err := ReadFrame(bytes.NewReader(retiredResponse(results)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, vals, err := DecodeResponseAny(payload, nil, nil); !errors.Is(err, ErrMalformed) || len(got) != 0 || vals != nil {
			t.Errorf("retired type 2, %d results: got %d results, err %v; want ErrMalformed", len(results), len(got), err)
		}
	}
	// Type bytes 1 and 3 are retired: frames well-formed under the old
	// layouts are rejected, whatever their record count.
	for _, typ := range []uint8{1, 3} {
		for _, ops := range [][]op.Op{nil, {{ID: 1, Kind: op.Add, Key: 2}}, {{ID: 1, Kind: op.Add, Key: 2}, {ID: 2, Kind: op.Remove, Key: -7}}} {
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
	ops := make([]op.Op, MaxOpsPerFrame+1)
	if _, err := AppendRequestV2(nil, ops, TraceContext{TraceID: 1}); !errors.Is(err, ErrTooManyOps) {
		t.Fatalf("got %v, want ErrTooManyOps", err)
	}
	// Responses are never refused for their count: AppendResponses
	// splits them at MaxOpsPerFrame.
	results := make([]op.Result, MaxOpsPerFrame+1)
	if _, frames, err := AppendResponses(nil, results); err != nil || frames != 2 {
		t.Fatalf("%d results: %d frames, err %v; want 2 frames", len(results), frames, err)
	}
}

func TestMaxOpsFrameRoundTrips(t *testing.T) {
	ops := make([]op.Op, MaxOpsPerFrame)
	for i := range ops {
		ops[i] = op.Op{ID: uint64(i), Kind: op.Kind(i % op.NumKinds), Key: int64(i * 31)}
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
	for k := op.Contains; k < op.Kind(op.NumKinds); k++ {
		if !k.Valid() {
			t.Errorf("kind %d should be valid", k)
		}
		if s := k.String(); s == "" || s[0] == 'O' {
			t.Errorf("kind %d has no name: %q", k, s)
		}
	}
	if op.Kind(op.NumKinds).Valid() {
		t.Error("sentinel kind must be invalid")
	}
	for _, s := range []op.Status{op.StatusOK, op.StatusBadKind, op.StatusBadKey} {
		if s.String() == "" {
			t.Errorf("status %d has no name", s)
		}
	}
}
