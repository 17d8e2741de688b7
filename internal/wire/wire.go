// Package wire defines the compact length-prefixed binary protocol
// spoken between pimload (or any client) and pimserve. It is the
// network analogue of the flat-combining publication list: a client
// publishes a *batch* of operations in one request frame, and the
// server answers it with one response frame carrying the results
// tagged by request id — more than one only when a single frame would
// exceed MaxPayload. Response frames may arrive out of request order.
//
// Frame layout (all integers little-endian):
//
//	uint32  payload length (bytes that follow; ≤ MaxPayload)
//	uint8   frame type
//	uint16  record count (≤ MaxOpsPerFrame)
//	...     trace context (requests only): trace id uint64 | flags uint8
//	...     count records
//
// Request record (27 bytes):   id uint64 | kind uint8 | key int64 | hi int64 | limit uint16
// Response record (20+8n):     id uint64 | status uint8 | ok uint8 | value int64 |
//
//	nvals uint16 | nvals × int64
//
// There is one request frame (FrameRequestV2) and one response frame
// (FrameResponse). Every request carries a trace-context slot (the zero
// trace id means untraced) and every op record carries the Hi bound and
// result Limit, which point ops leave zero. Every response record is
// count-prefixed: a range scan's keys follow it, a point result carries
// nvals 0. Type bytes 1, 2 and 3 named retired encodings and decode as
// ErrMalformed.
//
// Request ids are chosen by the client and echoed verbatim; the server
// never interprets them beyond matching a result to its op. Decoding
// is strict: a frame whose payload length does not exactly match its
// declared record count (walking the response records one by one) is
// rejected, so a desynchronized stream fails fast instead of smearing
// garbage into later frames.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pimds/internal/op"
)

// Names kept for bench/, which is frozen until ROADMAP item 7's
// [benchmark] PR; everything else names them through package op.
type (
	Op     = op.Op     // kept for bench/
	OpKind = op.Kind   // kept for bench/
	Result = op.Result // kept for bench/
)

// Kinds and statuses kept for bench/ (see above).
const (
	Contains     = op.Contains
	Add          = op.Add
	Remove       = op.Remove
	RangeScan    = op.RangeScan
	StatusOK     = op.StatusOK
	StatusBadKey = op.StatusBadKey
)

// Frame types. Values 1, 2 and 3 named retired encodings (two request
// frames and a fixed-size response frame) and decode as ErrMalformed.
const (
	// FrameRequestV2 is the request frame: a trace-context slot (trace
	// id 0 = untraced; a set sampled bit with a zero id is rejected, so
	// every accepted payload re-encodes byte-identically) followed by
	// 27-byte op records.
	FrameRequestV2 uint8 = 4
	// FrameResponse is the response frame: each record carries a uint16
	// value count followed by that many int64 values (a range scan's
	// keys; zero for every other result).
	FrameResponse uint8 = 5
)

// TraceContext is the per-frame trace context a client attaches to a
// request frame, so clients can originate distributed traces that the
// server's span recorder picks up. The zero TraceContext means "no
// trace".
type TraceContext struct {
	// TraceID identifies the trace. Zero is reserved for "no trace".
	TraceID uint64
	// Sampled asks the server to record a span breakdown for every
	// operation in the frame. An unsampled context still propagates
	// the ID (for log correlation) without span cost.
	Sampled bool
}

// flags encodes the context's flag byte (bit 0 = sampled; the rest
// must be zero).
func (tc TraceContext) flags() byte {
	if tc.Sampled {
		return 1
	}
	return 0
}

// Record and frame size constants.
const (
	resultSize = 8 + 1 + 1 + 8 + 2 // id, status, ok, value, nvals (before the values)
	headerSize = 1 + 2             // type, count
	traceSize  = 8 + 1             // trace id, flags (every request frame)

	// maxValsPerRecord is what the uint16 count prefix can express.
	maxValsPerRecord = 1<<16 - 1

	// MaxOpsPerFrame bounds the records in one frame; larger batches
	// must be split across frames.
	MaxOpsPerFrame = 4096

	// OpRecordSize is the encoded size of one op record as produced by
	// AppendOp — the same 27-byte layout FrameRequestV2 carries.
	// Exported so other framings (the WAL's batch records) can size
	// buffers and index records without re-deriving the layout.
	OpRecordSize = 8 + 1 + 8 + 8 + 2 // id, kind, key, hi, limit

	// MaxScanLimit is the largest result cardinality the server will
	// serve for one RangeScan; a request Limit of 0 (or anything
	// larger) is clamped to it. Bounding per-op results keeps combiner
	// passes and response frames small — clients page through bigger
	// ranges with the cursor.
	MaxScanLimit = 512

	// MaxPayload is the largest legal frame payload. A peer announcing
	// more is desynchronized or hostile and the connection should be
	// dropped. AppendResponses splits a batch of results so that no
	// response frame exceeds it.
	MaxPayload = 1 << 20
)

// Protocol errors.
var (
	// ErrFrameTooLarge: the length prefix exceeds MaxPayload.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxPayload")
	// ErrMalformed: the payload contradicts its own header.
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrTooManyOps: the request encoder was handed more than
	// MaxOpsPerFrame ops.
	ErrTooManyOps = errors.New("wire: too many records for one frame")
	// ErrBadTrace: the request encoder was handed a sampled trace
	// context with a zero trace ID.
	ErrBadTrace = errors.New("wire: sampled trace context requires a nonzero trace id")
	// ErrTooManyValues: one result carries more values than the uint16
	// count prefix can express.
	ErrTooManyValues = errors.New("wire: too many values for one record")
)

// Static pre-wrapped malformed-frame errors. The decode paths are
// pinned allocation-free, and building these with fmt.Errorf at the
// rejection site allocates; constructing them once here keeps rejection
// as cheap as acceptance (a desynchronized peer can hit these at frame
// rate). The offending byte values the old messages interpolated are
// recoverable from the frame itself; callers match with errors.Is.
var (
	errShortPayload    = fmt.Errorf("%w: payload length below header size", ErrMalformed)
	errTruncatedHeader = fmt.Errorf("%w: truncated header", ErrMalformed)
	errWrongFrameType  = fmt.Errorf("%w: unexpected frame type", ErrMalformed)
	errCountRange      = fmt.Errorf("%w: record count exceeds MaxOpsPerFrame", ErrMalformed)
	errSizeMismatch    = fmt.Errorf("%w: payload size does not match the declared record count", ErrMalformed)
	errBadTraceFlags   = fmt.Errorf("%w: trace flags byte must be 0 or 1", ErrMalformed)
	errZeroTraceID     = fmt.Errorf("%w: sampled frame with zero trace id", ErrMalformed)
	errBadStatus       = fmt.Errorf("%w: undefined status byte", ErrMalformed)
	errBadOKByte       = fmt.Errorf("%w: ok byte must be 0 or 1", ErrMalformed)
	errRecTruncated    = fmt.Errorf("%w: response record truncated", ErrMalformed)
	errRecTrailing     = fmt.Errorf("%w: trailing bytes after the last response record", ErrMalformed)
	errOpTruncated     = fmt.Errorf("%w: op record truncated", ErrMalformed)
	errBadOpKind       = fmt.Errorf("%w: undefined op kind", ErrMalformed)
)

// AppendOp appends the canonical 27-byte encoding of one op — the V2
// record layout — and returns the extended slice. This is the unit
// encoding shared by FrameRequestV2 and the WAL's batch records.
// Zero-alloc when buf has capacity.
//
//pimvet:nopark
func AppendOp(buf []byte, o op.Op) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, o.ID)
	buf = append(buf, byte(o.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Key))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Hi))
	buf = binary.LittleEndian.AppendUint16(buf, o.Limit)
	return buf
}

// DecodeOp decodes one op record produced by AppendOp from the front
// of b. Strict: the kind byte must name a defined op, so every accepted
// record re-encodes byte-identically. Zero-alloc.
//
//pimvet:nopark
func DecodeOp(b []byte) (op.Op, error) {
	if len(b) < OpRecordSize {
		return op.Op{}, errOpTruncated
	}
	o := op.Op{
		ID:    binary.LittleEndian.Uint64(b),
		Kind:  op.Kind(b[8]),
		Key:   int64(binary.LittleEndian.Uint64(b[9:])),
		Hi:    int64(binary.LittleEndian.Uint64(b[17:])),
		Limit: binary.LittleEndian.Uint16(b[25:]),
	}
	if !o.Kind.Valid() {
		return op.Op{}, errBadOpKind
	}
	return o, nil
}

// AppendRequestV2 appends one request frame carrying ops and the
// (possibly zero) trace context tc to buf and returns the extended
// slice. len(ops) must be in [0, MaxOpsPerFrame]. A zero tc encodes as
// trace id 0 ("untraced"); a sampled context with a zero id is rejected
// so decode/re-encode stays canonical. Zero-alloc when buf has
// capacity: clients reuse one buffer per connection.
//
//pimvet:nopark
func AppendRequestV2(buf []byte, ops []op.Op, tc TraceContext) ([]byte, error) {
	if len(ops) > MaxOpsPerFrame {
		return buf, ErrTooManyOps
	}
	if tc.TraceID == 0 && tc.Sampled {
		return buf, ErrBadTrace
	}
	payload := headerSize + traceSize + len(ops)*OpRecordSize
	buf = appendFrameHeader(buf, payload, FrameRequestV2, len(ops))
	buf = binary.LittleEndian.AppendUint64(buf, tc.TraceID)
	buf = append(buf, tc.flags())
	for _, o := range ops {
		buf = AppendOp(buf, o)
	}
	return buf, nil
}

// AppendResponses encodes results into as many response frames as
// needed, appended back to back to buf, and reports how many frames it
// wrote. Chunks are split so no frame exceeds MaxPayload or
// MaxOpsPerFrame records. Zero-alloc when buf has capacity: the
// server's writer goroutines reuse one buffer per connection.
//
//pimvet:nopark
func AppendResponses(buf []byte, results []op.Result) ([]byte, int, error) {
	frames := 0
	for len(results) > 0 {
		limit := min(len(results), MaxOpsPerFrame)
		payload, end := headerSize, 0
		for ; end < limit; end++ {
			if len(results[end].Values) > maxValsPerRecord {
				return buf, frames, ErrTooManyValues
			}
			rs := resultSize + 8*len(results[end].Values)
			if payload+rs > MaxPayload {
				break
			}
			payload += rs
		}
		if end == 0 {
			// A single record larger than MaxPayload; unreachable while
			// maxValsPerRecord values fit, but fail loudly if the bounds
			// ever diverge.
			return buf, frames, ErrFrameTooLarge
		}
		buf = appendFrameHeader(buf, payload, FrameResponse, end)
		for _, res := range results[:end] {
			buf = binary.LittleEndian.AppendUint64(buf, res.ID)
			ok := byte(0)
			if res.OK {
				ok = 1
			}
			buf = append(buf, byte(res.Status), ok)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Value))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(res.Values)))
			for _, v := range res.Values {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		}
		frames++
		results = results[end:]
	}
	return buf, frames, nil
}

//pimvet:nopark
func appendFrameHeader(buf []byte, payload int, typ uint8, count int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(count))
	return buf
}

// ReadFrame reads one length-prefixed payload from r, reusing buf when
// it is large enough. It returns io.EOF only on a clean frame
// boundary; a stream that dies mid-frame yields io.ErrUnexpectedEOF.
// The returned slice aliases buf (or its replacement) and is valid
// until the next call with the same buffer. Allocation-free, but it
// parks on r by design: this is the reader goroutine's blocking point,
// so it carries no //pimvet:nopark mark.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read into the reusable buffer rather than a
	// local array: a stack [4]byte sliced into an io.Reader argument
	// escapes and costs one heap allocation per frame (pinned by
	// TestReadFrameSteadyStateAllocs).
	if cap(buf) < 4 {
		buf = make([]byte, 4) // one-time seed of the reusable buffer
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // io.EOF here is a clean close
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, unexpectedEOF(err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxPayload {
		return nil, ErrFrameTooLarge
	}
	if n < headerSize {
		return nil, errShortPayload
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n) // amortized grow to the largest frame seen; steady state reuses the buffer
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	return buf, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// DecodeRequestAny decodes a request-frame payload (as returned by
// ReadFrame), appending the ops to dst and returning the frame's trace
// context (trace id 0 with a zero flags byte means untraced). Kinds are
// not validated here — the server answers undefined kinds with
// StatusBadKind rather than tearing down the connection. Everything
// else is strict: any frame type but FrameRequestV2, undefined flag
// bits, or a sampled flag with a zero trace id is ErrMalformed, so
// every accepted payload re-encodes byte-identically. Zero-alloc when
// dst has capacity: this is the server reader goroutine's per-frame
// fast path.
//
//pimvet:nopark
func DecodeRequestAny(payload []byte, dst []op.Op) ([]op.Op, TraceContext, error) {
	body, count, err := checkHeader(payload, FrameRequestV2, OpRecordSize, traceSize)
	if err != nil {
		return dst, TraceContext{}, err
	}
	tc := TraceContext{TraceID: binary.LittleEndian.Uint64(body)}
	switch body[8] {
	case 0:
	case 1:
		tc.Sampled = true
	default:
		return dst, TraceContext{}, errBadTraceFlags
	}
	if tc.Sampled && tc.TraceID == 0 {
		return dst, TraceContext{}, errZeroTraceID
	}
	body = body[traceSize:]
	for i := 0; i < count; i++ {
		rec := body[i*OpRecordSize:]
		dst = append(dst, op.Op{
			ID:    binary.LittleEndian.Uint64(rec),
			Kind:  op.Kind(rec[8]),
			Key:   int64(binary.LittleEndian.Uint64(rec[9:])),
			Hi:    int64(binary.LittleEndian.Uint64(rec[17:])),
			Limit: binary.LittleEndian.Uint16(rec[25:]),
		})
	}
	return dst, tc, nil
}

// DecodeResponseAny decodes a response-frame payload, appending the
// results to dst. Each record's values are appended to the vals arena
// and the result's Values field is a subslice of it, so callers reuse
// one arena per connection; the returned arena replaces vals. A record
// without values decodes with nil Values and leaves the arena alone.
// Validation is strict: an undefined status, an ok byte other than 0 or
// 1, a truncated record, trailing bytes, or a record-count mismatch is
// ErrMalformed, and dst and vals come back at their input lengths — so
// every accepted payload re-encodes byte-identically. Zero-alloc when
// dst and vals have capacity: this is the client reader's per-frame
// fast path.
//
//pimvet:nopark
func DecodeResponseAny(payload []byte, dst []op.Result, vals []int64) ([]op.Result, []int64, error) {
	if len(payload) < headerSize {
		return dst, vals, errTruncatedHeader
	}
	if payload[0] != FrameResponse {
		return dst, vals, errWrongFrameType
	}
	count := int(binary.LittleEndian.Uint16(payload[1:]))
	if count > MaxOpsPerFrame {
		return dst, vals, errCountRange
	}
	body := payload[headerSize:]
	if len(body) < count*resultSize {
		return dst, vals, errRecTruncated
	}
	// Any record walk that fits the body holds at most this many values,
	// so the arena grows once, up front: growing mid-decode could move
	// it and dangle the Values subslices already handed out.
	if bound := (len(body) - count*resultSize) / 8; cap(vals)-len(vals) < bound {
		grown := make([]int64, len(vals), len(vals)+bound) // amortized arena grow to the largest response seen; steady state reuses the arena
		copy(grown, vals)
		vals = grown
	}
	dst0, vals0 := len(dst), len(vals)
	for i := 0; i < count; i++ {
		if len(body) < resultSize {
			return dst[:dst0], vals[:vals0], errRecTruncated
		}
		if body[8] > uint8(op.StatusBadKey) {
			return dst[:dst0], vals[:vals0], errBadStatus
		}
		if body[9] > 1 {
			return dst[:dst0], vals[:vals0], errBadOKByte
		}
		n := int(binary.LittleEndian.Uint16(body[18:]))
		if len(body)-resultSize < 8*n {
			return dst[:dst0], vals[:vals0], errRecTruncated
		}
		res := op.Result{
			ID:     binary.LittleEndian.Uint64(body),
			Status: op.Status(body[8]),
			OK:     body[9] == 1,
			Value:  int64(binary.LittleEndian.Uint64(body[10:])),
		}
		if n > 0 {
			start := len(vals)
			for j := 0; j < n; j++ {
				vals = append(vals, int64(binary.LittleEndian.Uint64(body[resultSize+8*j:])))
			}
			res.Values = vals[start:len(vals):len(vals)]
		}
		dst = append(dst, res)
		body = body[resultSize+8*n:]
	}
	if len(body) != 0 {
		return dst[:dst0], vals[:vals0], errRecTrailing
	}
	return dst, vals, nil
}

// checkHeader validates the frame type and that the payload length
// matches the declared record count exactly. extra is the size of the
// fixed per-frame state (the request trace context) before the records;
// the returned body starts at that state.
//
//pimvet:nopark
func checkHeader(payload []byte, wantType uint8, recSize, extra int) (body []byte, count int, err error) {
	if len(payload) < headerSize {
		return nil, 0, errTruncatedHeader
	}
	if payload[0] != wantType {
		return nil, 0, errWrongFrameType
	}
	count = int(binary.LittleEndian.Uint16(payload[1:]))
	if count > MaxOpsPerFrame {
		return nil, 0, errCountRange
	}
	body = payload[headerSize:]
	if len(body) != extra+count*recSize {
		return nil, 0, errSizeMismatch
	}
	return body, count, nil
}
