package wal

import (
	"bytes"
	"errors"
	"testing"

	"pimds/internal/op"
)

// FuzzDecodeRecord drives the WAL record decoder with arbitrary bytes,
// pinning the recovery contract: every input is either cleanly rejected
// as ErrTorn/ErrCorrupt (never a panic, never a partial record) or
// decodes to a record that re-encodes byte-identically — the canonical
// framing property the wire decoders also hold. The committed corpus
// seeds the two failure shapes recovery must stop at, a truncated tail
// and a CRC-corrupt record, and the zero runs a live segment's
// pre-extended tail puts after its last record.
func FuzzDecodeRecord(f *testing.F) {
	// A healthy two-op record.
	good := AppendRecord(nil, 1, 7, []op.Op{
		{ID: 1, Kind: op.Add, Key: 42},
		{ID: 2, Kind: op.Remove, Key: 9},
	})
	f.Add(good)
	// Truncated tail: the crash cut the record mid-payload.
	f.Add(append([]byte(nil), good[:len(good)-5]...))
	// Corrupt CRC: a payload byte flipped after the seal.
	bad := append([]byte(nil), good...)
	bad[recHeaderSize+3] ^= 0x40
	f.Add(bad)
	// Empty input and a bare header.
	f.Add([]byte{})
	f.Add(good[:recHeaderSize])
	// Zero runs: the zero tail itself, a record followed by it, and a
	// record torn off where the tail begins.
	zeros := make([]byte, 64)
	f.Add(zeros)
	f.Add(append(append([]byte(nil), good...), zeros...))
	f.Add(append(append([]byte(nil), good[:len(good)/2]...), zeros...))

	var arena []op.Op
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data, arena[:0])
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is neither ErrTorn nor ErrCorrupt: %v", err)
			}
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
			return
		}
		arena = rec.Ops[:0]
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := AppendRecord(nil, rec.Shard, rec.Seq, rec.Ops)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted record does not re-encode byte-identically")
		}
	})
}

// FuzzDecodeSnapshot drives the snapshot decoder with arbitrary bytes:
// every input is either rejected with ErrCorruptSnapshot (never a
// panic) or decodes to a document that re-encodes byte-identically —
// the canonical encoding that lets two replays of one log be compared
// by their snapshot bytes. The committed corpus seeds a healthy
// document, a truncated one and a CRC-corrupt one.
func FuzzDecodeSnapshot(f *testing.F) {
	good := AppendSnapshot(nil, &Snapshot{Shards: []Shard{
		{Seq: 3, State: []int64{1, 5, 9}},
		{Seq: 0},
	}})
	f.Add(good)
	f.Add(append([]byte(nil), good[:len(good)-3]...))
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x10
	f.Add(bad)
	f.Add([]byte{})
	f.Add(AppendSnapshot(nil, &Snapshot{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("decode error is not ErrCorruptSnapshot: %v", err)
			}
			return
		}
		if !bytes.Equal(AppendSnapshot(nil, snap), data) {
			t.Fatalf("accepted snapshot does not re-encode byte-identically")
		}
	})
}
