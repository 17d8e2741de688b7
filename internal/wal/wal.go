// Package wal owns pimserve's durable directory: the write-ahead log,
// the snapshots that let it be truncated, and the one recovery that
// reads them back. It applies the paper's flat-combining insight to
// storage: the per-shard combiner already applies whole batches, so one
// log record — and in the default policy, one fsync — covers an entire
// batch of acked ops. Group commit falls out of the combining structure
// for free.
//
// The directory holds segment files (wal-%08d.log) and snapshot
// documents (snap-%08d.snap). A segment is written in order but never
// grown by a record: it grows by zero-filled extents, synced ahead of
// the write offset, and records overwrite them in place, so a
// group-commit fsync commits data blocks and not a new file size.
// The tail rule keeps those zeros harmless: Roll and Close cut a
// segment back to its records, durably, before the log moves on, so
// only the last segment can end in zeros, and replay reads a zero
// header as the end of the log and truncates there. Each record
// frames one combiner batch:
//
//	uint32 length  payload bytes after this 8-byte record header
//	uint32 crc     CRC-32C (Castagnoli) of the payload
//	payload:
//	    uint16 shard | uint64 seq | uint16 count | count × wire.OpRecordSize
//
// seq is a per-shard, contiguous record sequence number starting at 1;
// snapshots cite it so replay can skip records already folded into a
// restored state. Ops reuse the canonical 27-byte wire encoding
// (wire.AppendOp), and only mutating kinds are logged.
//
// Records are staged in two halves so the server can fill one inside
// the pinned combining window without allocating or touching a file:
// BeginRecord reserves the header, wire.AppendOp appends each op, and
// FinishRecord patches the count and seals the CRC. The actual write
// and fsync happen later, on the WAL writer goroutine.
//
// Decoding is strict, mirroring internal/wire: every accepted record
// re-encodes byte-identically, and recovery distinguishes a torn tail
// (ErrTorn — the crash cut the stream mid-record; truncate and carry
// on) from structural corruption (ErrCorrupt — CRC or shape violation;
// also a stopping point, never skipped over).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"pimds/internal/op"
	"pimds/internal/wire"
)

// Record framing constants.
const (
	recHeaderSize = 4 + 4     // length, crc
	payloadHead   = 2 + 8 + 2 // shard, seq, count

	// MaxRecordPayload bounds one record's payload: a record carries at
	// most one frame's worth of ops, like the wire protocol it borrows
	// its op encoding from.
	MaxRecordPayload = payloadHead + wire.MaxOpsPerFrame*wire.OpRecordSize
)

// RecordCap returns the buffer capacity needed to stage one record of
// up to maxOps ops; the server preallocates staging buffers with it.
func RecordCap(maxOps int) int {
	return recHeaderSize + payloadHead + maxOps*wire.OpRecordSize
}

// Decode errors. Replay treats both as "the log ends here": ErrTorn is
// the expected shape of a crash (the tail was cut mid-record), while
// ErrCorrupt means a structurally complete record contradicts itself.
var (
	ErrTorn    = errors.New("wal: torn record (truncated tail)")
	ErrCorrupt = errors.New("wal: corrupt record")
)

// crcTable is the Castagnoli polynomial, built once at init so the
// checksum call inside the pinned combining window never takes the
// lazy-initialization path.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BeginRecord starts staging one record into buf (normally buf[:0] of
// a preallocated arena): it reserves the record header and writes the
// shard and sequence fields, leaving length, crc and count as
// placeholders for FinishRecord. Zero-alloc when buf has capacity.
//
//pimvet:nopark
func BeginRecord(buf []byte, shard uint16, seq uint64) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched by FinishRecord
	buf = binary.LittleEndian.AppendUint16(buf, shard)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // count, patched by FinishRecord
	return buf
}

// FinishRecord seals a record staged by BeginRecord followed by count
// wire.AppendOp calls: it patches the count, then the length and CRC.
// buf must begin at the record's first byte. A batch that mutated
// nothing (count 0) produces no record — the empty slice is returned
// and nothing need be logged. Zero-alloc.
//
//pimvet:nopark
func FinishRecord(buf []byte, count int) []byte {
	if count == 0 {
		return buf[:0]
	}
	payload := buf[recHeaderSize:]
	binary.LittleEndian.PutUint16(payload[10:], uint16(count))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	return buf
}

// AppendRecord encodes one whole record in a single call — the
// convenience form of BeginRecord + AppendOp× + FinishRecord that
// tests and tools use; the staging halves exist for the server, which
// fills the record incrementally inside the combining window.
func AppendRecord(buf []byte, shard uint16, seq uint64, ops []op.Op) []byte {
	start := len(buf)
	buf = BeginRecord(buf, shard, seq)
	for _, o := range ops {
		buf = wire.AppendOp(buf, o)
	}
	sealed := FinishRecord(buf[start:], len(ops))
	return buf[:start+len(sealed)]
}

// Record is one decoded WAL record: a combiner batch's mutating ops.
type Record struct {
	Shard uint16
	Seq   uint64
	// Ops aliases the arena passed to DecodeRecord; reuse it via
	// rec.Ops[:0] on the next call.
	Ops []op.Op
}

// DecodeRecord decodes one record from the front of b, appending its
// ops to dst (pass dst[:0] to reuse an arena across records). It
// returns the record, the total bytes consumed, and an error: ErrTorn
// when b ends before the record does, ErrCorrupt when a complete
// record fails its CRC or declares an impossible shape.
func DecodeRecord(b []byte, dst []op.Op) (Record, int, error) {
	if len(b) < recHeaderSize {
		return Record{}, 0, ErrTorn
	}
	n := int(binary.LittleEndian.Uint32(b))
	crc := binary.LittleEndian.Uint32(b[4:])
	if n < payloadHead || n > MaxRecordPayload {
		return Record{}, 0, ErrCorrupt
	}
	if len(b) < recHeaderSize+n {
		return Record{}, 0, ErrTorn
	}
	payload := b[recHeaderSize : recHeaderSize+n]
	if crc32.Checksum(payload, crcTable) != crc {
		return Record{}, 0, ErrCorrupt
	}
	rec := Record{
		Shard: binary.LittleEndian.Uint16(payload),
		Seq:   binary.LittleEndian.Uint64(payload[2:]),
	}
	count := int(binary.LittleEndian.Uint16(payload[10:]))
	if count == 0 || count > wire.MaxOpsPerFrame || n != payloadHead+count*wire.OpRecordSize {
		return Record{}, 0, ErrCorrupt
	}
	body := payload[payloadHead:]
	start := len(dst)
	for i := 0; i < count; i++ {
		o, err := wire.DecodeOp(body[i*wire.OpRecordSize:])
		if err != nil || !o.Kind.Mutating() {
			// The CRC passed but the op is not one a WAL writer would
			// ever log: the record was produced by a broken encoder.
			return Record{}, 0, ErrCorrupt
		}
		dst = append(dst, o)
	}
	rec.Ops = dst[start:]
	return rec, recHeaderSize + n, nil
}

// SegmentName returns the file name of segment n.
func SegmentName(n uint64) string { return fmt.Sprintf("wal-%08d.log", n) }

// SnapshotName returns the file name of the snapshot taken at segment
// boundary n.
func SnapshotName(n uint64) string { return fmt.Sprintf("snap-%08d.snap", n) }

// parseName reads n back out of a name that canon(n) would produce;
// round-tripping rejects anything non-canonical (wrong padding,
// trailing junk).
func parseName(name, format string, canon func(uint64) string) (uint64, bool) {
	var n uint64
	_, err := fmt.Sscanf(name, format, &n)
	return n, err == nil && name == canon(n)
}

// List reads dir once and returns the indexes of its segments and of
// its snapshots, each ascending; foreign files are ignored. A missing
// directory is an empty log, not an error.
func List(dir string) (segs, snaps []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if n, ok := parseName(e.Name(), "wal-%d.log", SegmentName); ok {
			segs = append(segs, n)
		} else if n, ok := parseName(e.Name(), "snap-%d.snap", SnapshotName); ok {
			snaps = append(snaps, n)
		}
	}
	slices.Sort(segs)
	slices.Sort(snaps)
	return segs, snaps, err
}

// prune removes every segment and every snapshot with index < below:
// the snapshot at boundary `below` supersedes them all. The first
// removal error is returned, but a leftover file is harmless — replay
// skips covered records by seq, and recovery prefers the newest
// snapshot.
func prune(dir string, below uint64) error {
	segs, snaps, err := List(dir)
	for _, seg := range segs {
		if err == nil && seg < below {
			err = os.Remove(filepath.Join(dir, SegmentName(seg)))
		}
	}
	for _, snap := range snaps {
		if err == nil && snap < below {
			err = os.Remove(filepath.Join(dir, SnapshotName(snap)))
		}
	}
	return err
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives power loss, not only process death.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSegment opens segment seg in dir for writing, creating it if
// needed, and fsyncs the directory entry: otherwise records fsynced
// into a fresh segment could vanish on power loss with their file.
// The file is not opened O_APPEND: records are written at the Log's
// offset, over the zero-filled extent ahead of it.
func openSegment(dir string, seg uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, SegmentName(seg)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// extent is the stretch of zeros a segment grows by. A sync that
// overwrites blocks the file already owns commits data only; one that
// grows the file also commits its new size and block map, and costs
// about half as much again. 1 MiB keeps Open's first fill inside
// recovery's run-to-run spread, where 4 MiB did not.
const extent = 1 << 20

// zeros is the source of every fill.
var zeros [extent]byte

// A Log is one open segment being written. Appends accumulate in a
// userspace buffer; Sync flushes it and (when the log was opened with
// fsync) forces the segment to stable storage. All methods belong to
// one goroutine — the server's WAL writer.
//
// The segment file is always longer than its records: its tail, from
// the write offset on, is a zero-filled extent already synced, so a
// Sync overwrites in place and never grows the file. Extend tops the
// tail up between groups; Append grows it first if a record would not
// fit. Roll and Close cut the tail off, so only the open segment ever
// ends in zeros, which replay reads as the end of the log.
type Log struct {
	dir   string
	fsync bool
	seg   uint64
	f     *os.File
	bw    *bufio.Writer
	size  int64 // written length: every appended record, buffered ones included
	end   int64 // file length: size plus the zero tail ahead of it
}

// Open opens segment seg in dir for writing after its last record,
// creating the directory and the segment as needed, and pre-extends
// it by one extent. The segment must end on a record boundary, as
// Recover leaves it. fsync selects whether Sync reaches the disk or
// only the kernel; without it, extensions are not synced either. When
// Open creates the WAL directory, the parent's entry for it is
// fsynced too.
func Open(dir string, seg uint64, fsync bool) (*Log, error) {
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := openSegment(dir, seg)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && errors.Is(statErr, os.ErrNotExist) {
		err = syncDir(filepath.Dir(dir))
	}
	l := &Log{dir: dir, fsync: fsync, seg: seg, f: f, bw: bufio.NewWriterSize(f, 1<<18)}
	if err == nil {
		l.size, l.end = st.Size(), st.Size()
		_, err = f.Seek(l.size, io.SeekStart)
	}
	if err == nil {
		err = l.extend(l.size)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// extend zero-fills the file from its end to one extent past offset
// at and, under fsync, syncs it: the fill is the one write that grows
// the file. Buffered records lie below end, so the fill never lands
// under one.
func (l *Log) extend(at int64) error {
	for to := at + extent; l.end < to; {
		n, err := l.f.WriteAt(zeros[:min(extent, to-l.end)], l.end)
		l.end += int64(n)
		if err != nil {
			return err
		}
	}
	if !l.fsync {
		return nil
	}
	return l.f.Sync()
}

// Extend tops the zero tail up to one extent once less than half an
// extent is left. The server's WAL writer calls it after releasing a
// group's acks, so no ack waits on a fill.
func (l *Log) Extend() error {
	if l.end-l.size >= extent/2 {
		return nil
	}
	return l.extend(l.size)
}

// Append buffers one sealed record, first growing the zero tail if the
// record would not fit in it. Durability is Sync's job.
func (l *Log) Append(rec []byte) error {
	if at := l.size + int64(len(rec)); at > l.end {
		if err := l.extend(at); err != nil {
			return err
		}
	}
	n, err := l.bw.Write(rec)
	l.size += int64(n)
	return err
}

// Sync flushes buffered records to the file and, when the log was
// opened with fsync, forces them to stable storage. This is the
// group-commit point: everything appended since the last Sync becomes
// durable together. The records overwrite the zero tail, so the file
// keeps its size.
func (l *Log) Sync() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if !l.fsync {
		return nil
	}
	return l.f.Sync()
}

// cut flushes buffered records, cuts the zero tail off and, when the
// log was opened with fsync, syncs the segment at its written length.
func (l *Log) cut() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	l.end = l.size
	if !l.fsync {
		return nil
	}
	return l.f.Sync()
}

// Seg returns the index of the open segment.
func (l *Log) Seg() uint64 { return l.seg }

// Size returns the written length of the open segment including
// buffered appends; the zero tail is not counted.
func (l *Log) Size() int64 { return l.size }

// Roll cuts the open segment to its written length, syncs and closes
// it, then opens the next one and pre-extends it. The cut is durable
// before the next segment exists, so a zero tail only ever ends the
// last segment. The new segment's directory entry is fsynced so the
// roll itself is durable. Snapshots roll first: every record in closed
// segments then predates the snapshot's per-shard sequence numbers.
func (l *Log) Roll() error {
	if err := l.cut(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := openSegment(l.dir, l.seg+1)
	if err != nil {
		return err
	}
	l.seg++
	l.f = f
	l.size, l.end = 0, 0
	l.bw.Reset(f)
	return l.extend(0)
}

// Close cuts the open segment to its written length, syncs and closes
// it: a cleanly closed log has no zero tail.
func (l *Log) Close() error {
	err := l.cut()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
