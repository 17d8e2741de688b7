package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pimds/internal/op"
	"pimds/internal/wire"
)

func mkOps(n int) []op.Op {
	ops := make([]op.Op, n)
	for i := range ops {
		ops[i] = op.Op{ID: uint64(i + 1), Kind: op.Add, Key: int64(100 + i)}
	}
	return ops
}

func TestRecordRoundTrip(t *testing.T) {
	ops := []op.Op{
		{ID: 1, Kind: op.Add, Key: 42},
		{ID: 2, Kind: op.Remove, Key: -7},
		{ID: 3, Kind: op.Enqueue, Key: 1 << 40},
		{ID: 4, Kind: op.PopMax, Key: 0},
	}
	buf := AppendRecord(nil, 3, 17, ops)
	rec, n, err := DecodeRecord(buf, nil)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if rec.Shard != 3 || rec.Seq != 17 {
		t.Fatalf("header = shard %d seq %d, want 3/17", rec.Shard, rec.Seq)
	}
	if len(rec.Ops) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(rec.Ops), len(ops))
	}
	for i := range ops {
		if rec.Ops[i] != ops[i] {
			t.Fatalf("op %d = %+v, want %+v", i, rec.Ops[i], ops[i])
		}
	}
	// Canonical: re-encoding the decoded record is byte-identical.
	re := AppendRecord(nil, rec.Shard, rec.Seq, rec.Ops)
	if !bytes.Equal(re, buf) {
		t.Fatal("re-encoded record differs from the original bytes")
	}
}

func TestStagingMatchesAppendRecord(t *testing.T) {
	ops := mkOps(9)
	whole := AppendRecord(nil, 1, 5, ops)
	staged := BeginRecord(make([]byte, 0, RecordCap(16)), 1, 5)
	for _, o := range ops {
		staged = wire.AppendOp(staged, o)
	}
	staged = FinishRecord(staged, len(ops))
	if !bytes.Equal(whole, staged) {
		t.Fatal("staged encoding differs from AppendRecord")
	}
}

func TestEmptyRecordStagesToNothing(t *testing.T) {
	buf := BeginRecord(nil, 0, 1)
	if got := FinishRecord(buf, 0); len(got) != 0 {
		t.Fatalf("count-0 record sealed to %d bytes, want 0", len(got))
	}
}

func TestDecodeTornAndCorrupt(t *testing.T) {
	buf := AppendRecord(nil, 0, 1, mkOps(3))
	// Every strict prefix is torn, never corrupt: a crash can cut the
	// stream anywhere and recovery must classify it as a clean tail.
	for n := 0; n < len(buf); n++ {
		if _, _, err := DecodeRecord(buf[:n], nil); !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix len %d: err = %v, want ErrTorn", n, err)
		}
	}
	// A flipped payload byte is corrupt (CRC catches it).
	bad := append([]byte(nil), buf...)
	bad[recHeaderSize+4] ^= 0xff
	if _, _, err := DecodeRecord(bad, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload byte: err = %v, want ErrCorrupt", err)
	}
	// A zero count contradicts the framing.
	zero := AppendRecord(nil, 0, 1, mkOps(1))
	zero[recHeaderSize+10] = 0
	if _, _, err := DecodeRecord(zero, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero count: err = %v, want ErrCorrupt", err)
	}
	// An absurd declared length is corrupt even though the bytes run out.
	huge := append([]byte(nil), buf...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := DecodeRecord(huge, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsNonMutatingOps: a CRC-valid record carrying a
// read-only kind was produced by a broken writer; recovery must not
// trust it.
func TestDecodeRejectsNonMutatingOps(t *testing.T) {
	buf := AppendRecord(nil, 0, 1, []op.Op{{ID: 1, Kind: op.Contains, Key: 9}})
	if _, _, err := DecodeRecord(buf, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read-only op in record: err = %v, want ErrCorrupt", err)
	}
}

func writeRecords(t *testing.T, l *Log, shard uint16, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		rec := AppendRecord(nil, shard, seq, mkOps(2))
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeRecords(t, l, 0, 1, 5)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var seqs []uint64
	res, err := replay(dir, 0, func(rec Record) error {
		seqs = append(seqs, rec.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Records != 5 || res.Ops != 10 || res.Truncated {
		t.Fatalf("replay = %+v, want 5 records / 10 ops, not truncated", res)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("replay order %v, want 1..5", seqs)
		}
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeRecords(t, l, 0, 1, 3)
	goodSize := l.Size()
	// A torn append: half a record reaches the file before the crash.
	torn := AppendRecord(nil, 0, 4, mkOps(2))
	if err := l.Append(torn[:len(torn)/2]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res, err := replay(dir, 0, nil2(t))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Records != 3 || !res.Truncated {
		t.Fatalf("replay = %+v, want 3 records, truncated", res)
	}
	st, err := os.Stat(filepath.Join(dir, SegmentName(0)))
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Size() != goodSize {
		t.Fatalf("segment size after truncation = %d, want %d", st.Size(), goodSize)
	}
	// The cleaned log replays without truncation and accepts appends.
	res, err = replay(dir, 0, nil2(t))
	if err != nil || res.Truncated || res.Records != 3 {
		t.Fatalf("second replay = %+v (err %v), want clean 3 records", res, err)
	}
	l, err = Open(dir, res.NextSeg, false)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	writeRecords(t, l, 0, 4, 4)
	l.Close()
	res, err = replay(dir, 0, nil2(t))
	if err != nil || res.Records != 4 {
		t.Fatalf("replay after continued append = %+v (err %v), want 4 records", res, err)
	}
}

func TestReplayStopsAtCorruptRecordAndDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeRecords(t, l, 0, 1, 2)
	if err := l.Roll(); err != nil {
		t.Fatalf("Roll: %v", err)
	}
	writeRecords(t, l, 0, 3, 4)
	if err := l.Roll(); err != nil {
		t.Fatalf("Roll: %v", err)
	}
	writeRecords(t, l, 0, 5, 6)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt the first record of segment 1: recovery keeps segment 0,
	// cuts segment 1 to zero records, and removes segment 2 entirely.
	path := filepath.Join(dir, SegmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[recHeaderSize+4] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	res, err := replay(dir, 0, nil2(t))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Records != 2 || !res.Truncated || res.NextSeg != 1 {
		t.Fatalf("replay = %+v, want 2 records, truncated, NextSeg 1", res)
	}
	segs, _, err := List(dir)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(segs) != 2 || segs[0] != 0 || segs[1] != 1 {
		t.Fatalf("segments after truncation = %v, want [0 1]", segs)
	}
	if st, _ := os.Stat(path); st.Size() != 0 {
		t.Fatalf("corrupt segment cut to %d bytes, want 0", st.Size())
	}
}

func TestReplayFromSkipsOldSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeRecords(t, l, 0, 1, 2)
	if err := l.Roll(); err != nil {
		t.Fatalf("Roll: %v", err)
	}
	writeRecords(t, l, 0, 3, 4)
	l.Close()
	res, err := replay(dir, 1, nil2(t))
	if err != nil || res.Records != 2 || res.NextSeg != 1 {
		t.Fatalf("replay from seg 1 = %+v (err %v), want 2 records from seg 1", res, err)
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Roll(); err != nil {
			t.Fatalf("Roll: %v", err)
		}
	}
	l.Close()
	for _, seg := range []uint64{1, 2} {
		if err := writeSnapshot(dir, seg, &Snapshot{}); err != nil {
			t.Fatalf("writeSnapshot: %v", err)
		}
	}
	if err := prune(dir, 2); err != nil {
		t.Fatalf("prune: %v", err)
	}
	segs, snaps, err := List(dir)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(segs) != 2 || segs[0] != 2 || segs[1] != 3 {
		t.Fatalf("segments after prune = %v, want [2 3]", segs)
	}
	if len(snaps) != 1 || snaps[0] != 2 {
		t.Fatalf("snapshots after prune = %v, want [2]", snaps)
	}
}

func TestSegmentsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal-00000002.log", "snap-00000001.snap", "wal-junk.log", "notes.txt", "snap-1.snap", "snap-00000003.snap.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, snaps, err := List(dir)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(segs) != 1 || segs[0] != 2 {
		t.Fatalf("segments = %v, want [2]", segs)
	}
	if len(snaps) != 1 || snaps[0] != 1 {
		t.Fatalf("snapshots = %v, want [1]", snaps)
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	res, err := replay(filepath.Join(t.TempDir(), "absent"), 0, nil2(t))
	if err != nil || res.Records != 0 || res.NextSeg != 0 {
		t.Fatalf("replay of missing dir = %+v (err %v), want empty", res, err)
	}
}

// nil2 is a replay callback that accepts every record, for tests that
// only assert on the summary counts.
func nil2(t *testing.T) func(Record) error {
	t.Helper()
	return func(Record) error { return nil }
}

// crash abandons l as kill -9 would: the file is closed without the
// cut Close makes, and records still in the userspace buffer are lost.
func crash(t *testing.T, l *Log) {
	t.Helper()
	if err := l.f.Close(); err != nil {
		t.Fatalf("closing the abandoned segment: %v", err)
	}
}

// replaySeqs replays dir from segment 0 and returns the summary and
// the seq of every record, in log order.
func replaySeqs(t *testing.T, dir string) (replayResult, []uint64) {
	t.Helper()
	var seqs []uint64
	res, err := replay(dir, 0, func(rec Record) error {
		seqs = append(seqs, rec.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return res, seqs
}

func segSize(t *testing.T, dir string, seg uint64) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, SegmentName(seg)))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func seqRange(from, to uint64) []uint64 {
	var s []uint64
	for seq := from; seq <= to; seq++ {
		s = append(s, seq)
	}
	return s
}

// TestCrashKeepsSyncedRecords: a log abandoned without Close leaves
// its segment ending in the zero tail. Recovery keeps every synced
// record, cuts the zeros, and the next Open writes after the records.
func TestCrashKeepsSyncedRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, true)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeRecords(t, l, 0, 1, 3)
	good := l.Size()
	// Appended but never synced: it dies with the process's buffer.
	if err := l.Append(AppendRecord(nil, 0, 4, mkOps(2))); err != nil {
		t.Fatalf("Append: %v", err)
	}
	crash(t, l)
	if size := segSize(t, dir, 0); size < good+extent/2 {
		t.Fatalf("crashed segment is %d bytes, want %d written bytes and a zero tail of at least %d", size, good, extent/2)
	}

	res, seqs := replaySeqs(t, dir)
	if !slices.Equal(seqs, seqRange(1, 3)) || !res.Truncated || res.NextSeg != 0 {
		t.Fatalf("replay after crash = %+v, seqs %v; want seqs 1..3, zero tail truncated, NextSeg 0", res, seqs)
	}
	if size := segSize(t, dir, 0); size != good {
		t.Fatalf("segment after recovery = %d bytes, want its %d written bytes", size, good)
	}

	l, err = Open(dir, res.NextSeg, true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	writeRecords(t, l, 0, 4, 5)
	crash(t, l)
	if res, seqs = replaySeqs(t, dir); !slices.Equal(seqs, seqRange(1, 5)) {
		t.Fatalf("replay after the second crash = %+v, seqs %v; want seqs 1..5", res, seqs)
	}
}

// TestTornRecordBeforeZeros: a crash that cut a record short leaves it
// followed by the zero tail, not by the end of the file. Recovery cuts
// the segment at the last good record wherever the cut fell. A cut
// that lost only zero bytes is no cut at all: the zeros already on
// disk complete the record, which then replays.
func TestTornRecordBeforeZeros(t *testing.T) {
	torn := AppendRecord(nil, 0, 3, mkOps(2))
	last := len(torn) - 1 // the record's last nonzero byte
	for torn[last] == 0 {
		last--
	}
	for _, cut := range []int{1, recHeaderSize, recHeaderSize + 1, len(torn) / 2, last, last + 1} {
		want := seqRange(1, 2)
		if cut > last {
			want = seqRange(1, 3)
		}
		dir := t.TempDir()
		l, err := Open(dir, 0, true)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		writeRecords(t, l, 0, 1, 2)
		good := l.Size()
		if err := l.Append(torn[:cut]); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		crash(t, l)
		res, seqs := replaySeqs(t, dir)
		if !slices.Equal(seqs, want) || !res.Truncated {
			t.Errorf("torn after %d of %d bytes: replay = %+v, seqs %v; want seqs %v, zeros truncated", cut, len(torn), res, seqs, want)
		}
		if cut > last {
			good += int64(len(torn))
		}
		if size := segSize(t, dir, 0); size != good {
			t.Errorf("torn after %d of %d bytes: segment cut to %d bytes, want %d", cut, len(torn), size, good)
		}
	}
}

// TestRollCutsZeroTail: Roll cuts the closed segment to its records
// before the next one exists. Otherwise replay would read the closed
// segment's zeros as the end of the log and drop the newer segment,
// and with it records that were synced and acknowledged.
func TestRollCutsZeroTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, true)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeRecords(t, l, 0, 1, 3)
	closed := l.Size()
	if err := l.Roll(); err != nil {
		t.Fatalf("Roll: %v", err)
	}
	writeRecords(t, l, 0, 4, 6)
	crash(t, l)
	if size := segSize(t, dir, 0); size != closed {
		t.Errorf("rolled segment is %d bytes, want its %d written bytes", size, closed)
	}
	res, seqs := replaySeqs(t, dir)
	if !slices.Equal(seqs, seqRange(1, 6)) || res.NextSeg != 1 {
		t.Fatalf("replay after roll and crash = %+v, seqs %v; want seqs 1..6 from both segments, NextSeg 1", res, seqs)
	}
	if segs, _, err := List(dir); err != nil || !slices.Equal(segs, []uint64{0, 1}) {
		t.Fatalf("segments after recovery = %v (err %v), want [0 1]", segs, err)
	}
}

// TestCloseCutsZeroTail: a cleanly closed log ends on a record
// boundary, with nothing for the next recovery to truncate.
func TestCloseCutsZeroTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, true)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	writeRecords(t, l, 0, 1, 3)
	written := l.Size()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if size := segSize(t, dir, 0); size != written {
		t.Fatalf("closed segment is %d bytes, want its %d written bytes", size, written)
	}
	if res, seqs := replaySeqs(t, dir); res.Truncated || !slices.Equal(seqs, seqRange(1, 3)) {
		t.Fatalf("replay of a closed log = %+v, seqs %v; want seqs 1..3, nothing truncated", res, seqs)
	}
}

// TestAppendPastZeroTail: a group larger than the zero tail grows the
// file by extension before its records land, so the group's Sync
// still overwrites in place; Extend tops the tail up afterwards.
func TestAppendPastZeroTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := AppendRecord(nil, 0, 1, mkOps(wire.MaxOpsPerFrame))
	n := extent/len(rec) + 2 // one more record than the first extent holds
	for i := 0; i < n; i++ {
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if l.end < l.size {
			t.Fatalf("after record %d the file ends at %d, before the write offset %d", i, l.end, l.size)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if size := segSize(t, dir, 0); size != l.end || size <= extent {
		t.Fatalf("segment is %d bytes, want the grown file's %d", size, l.end)
	}
	if err := l.Extend(); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if l.end-l.size < extent/2 {
		t.Fatalf("zero tail after Extend is %d bytes, want at least %d", l.end-l.size, extent/2)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if size := segSize(t, dir, 0); size != int64(n*len(rec)) {
		t.Fatalf("closed segment is %d bytes, want %d", size, n*len(rec))
	}
}
