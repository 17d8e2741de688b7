package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"pimds/internal/op"
)

// Recover rebuilds nshards shards from dir and returns the segment to
// append to next and each shard's last record seq. It is the one place
// that reads the directory's rules back:
//
//   - The newest snapshot that decodes is restored, one restore call
//     per shard with its dump; a corrupt one falls back to an older one
//     that decodes (see Latest). When snapshots exist and none decodes,
//     Recover refuses with an error wrapping ErrCorruptSnapshot that
//     names the file, before replay touches the directory: the
//     segments the snapshot superseded are gone, so replaying without
//     it would rebuild a state with a hole in it.
//   - Snapshot N supersedes every segment below N, so replay starts at
//     segment N. Records there that the snapshot already covers — seq at
//     or below the shard's snapshot Seq, written between the roll and
//     the dump — are skipped; every later record goes to apply, in log
//     order.
//   - A shard's seqs run without gaps from its snapshot Seq (0 without
//     a snapshot).
//
// Recover refuses a snapshot captured with another shard count, a
// record for a shard index ≥ nshards, and a gap in a shard's seqs. It
// truncates a torn or corrupt tail (see replay). An error from restore
// or apply aborts recovery, wrapped with where the data came from.
func Recover(dir string, nshards int, restore func(shard int, state []int64) error, apply func(Record) error) (nextSeg uint64, seqs []uint64, err error) {
	seqs = make([]uint64, nshards)
	snap, from, ok, err := Latest(dir)
	if err != nil {
		return 0, nil, err
	}
	if ok && len(snap.Shards) != nshards {
		return 0, nil, fmt.Errorf("wal: snapshot %s captures %d shards, recovering %d",
			SnapshotName(from), len(snap.Shards), nshards)
	}
	for i := 0; ok && i < nshards; i++ {
		if err := restore(i, snap.Shards[i].State); err != nil {
			return 0, nil, fmt.Errorf("wal: snapshot %s: %w", SnapshotName(from), err)
		}
		seqs[i] = snap.Shards[i].Seq
	}
	covered := slices.Clone(seqs)
	res, err := replay(dir, from, func(rec Record) error {
		i := int(rec.Shard)
		switch {
		case i >= nshards:
			return fmt.Errorf("wal: record for shard %d, recovering %d shards", i, nshards)
		case rec.Seq <= covered[i]:
			return nil
		case rec.Seq != seqs[i]+1:
			return fmt.Errorf("wal: shard %d sequence gap: have %d, next record is %d", i, seqs[i], rec.Seq)
		}
		if err := apply(rec); err != nil {
			return fmt.Errorf("wal: shard %d record %d: %w", i, rec.Seq, err)
		}
		seqs[i] = rec.Seq
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return res.NextSeg, seqs, nil
}

// replayResult summarizes one replay pass.
type replayResult struct {
	Records   int
	Ops       int
	Truncated bool   // a torn or corrupt tail was cut off
	NextSeg   uint64 // segment to open for appending
}

// replay walks every record in dir's segments with index ≥ from, in
// segment then file order, calling fn for each. Segments are streamed
// through a bounded buffer, so recovery memory is independent of
// segment size. Recovery stops cleanly at the first torn or corrupt
// record: the containing segment is truncated at the last good byte
// and any later segments — written after the point the log went bad —
// are removed, so the next process appends to an intact log. fn's
// error aborts the walk unchanged.
//
// The Record passed to fn aliases an internal arena reused between
// calls; copy what must outlive the callback.
func replay(dir string, from uint64, fn func(Record) error) (replayResult, error) {
	segs, _, err := List(dir)
	if err != nil {
		return replayResult{}, err
	}
	res := replayResult{NextSeg: from}
	var arena []op.Op
	recBuf := make([]byte, recHeaderSize+MaxRecordPayload)
	for si, seg := range segs {
		if seg < from {
			continue
		}
		res.NextSeg = seg
		path := filepath.Join(dir, SegmentName(seg))
		good, ok, err := replaySegment(path, recBuf, &arena, &res, fn)
		if err != nil {
			return res, err
		}
		if !ok {
			// The log ends here. Cut the bad tail and drop every
			// later segment so the survivors form an intact log.
			if err := os.Truncate(path, good); err != nil {
				return res, err
			}
			for _, later := range segs[si+1:] {
				if err := os.Remove(filepath.Join(dir, SegmentName(later))); err != nil {
					return res, err
				}
			}
			res.Truncated = true
			return res, nil
		}
	}
	return res, nil
}

// replaySegment streams one segment's records through fn, accumulating
// counts into res. It returns the byte offset of the end of the last
// good record and whether the segment was consumed cleanly; ok == false
// with a nil error means the segment turned torn or corrupt at offset
// good and the caller should truncate there. recBuf must hold a
// maximum-size record; arena is the op arena reused across records.
func replaySegment(path string, recBuf []byte, arena *[]op.Op, res *replayResult, fn func(Record) error) (good int64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<18)
	for {
		if _, rerr := io.ReadFull(br, recBuf[:recHeaderSize]); rerr != nil {
			if rerr == io.EOF {
				return good, true, nil
			}
			if rerr == io.ErrUnexpectedEOF {
				return good, false, nil // torn mid-header
			}
			return good, false, rerr
		}
		n := int(binary.LittleEndian.Uint32(recBuf))
		if n < payloadHead || n > MaxRecordPayload {
			return good, false, nil // corrupt length; DecodeRecord would reject it too
		}
		if _, rerr := io.ReadFull(br, recBuf[recHeaderSize:recHeaderSize+n]); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return good, false, nil // torn mid-payload
			}
			return good, false, rerr
		}
		rec, consumed, derr := DecodeRecord(recBuf[:recHeaderSize+n], (*arena)[:0])
		if derr != nil {
			return good, false, nil
		}
		*arena = rec.Ops[:0]
		if ferr := fn(rec); ferr != nil {
			return good, false, ferr
		}
		res.Records++
		res.Ops += len(rec.Ops)
		good += int64(consumed)
	}
}
