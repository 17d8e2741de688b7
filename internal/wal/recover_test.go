package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pimds/internal/op"
)

// setModel is a per-shard sorted key set: enough of a backend to
// recover the fixture, whose log holds only adds and removes.
type setModel [][]int64

func (m setModel) restore(shard int, state []int64) error {
	m[shard] = slices.Clone(state)
	return nil
}

func (m setModel) apply(rec Record) error {
	keys := m[rec.Shard]
	for _, o := range rec.Ops {
		i, found := slices.BinarySearch(keys, o.Key)
		switch {
		case o.Kind == op.Add && !found:
			keys = slices.Insert(keys, i, o.Key)
		case o.Kind == op.Remove && found:
			keys = slices.Delete(keys, i, i+1)
		}
	}
	m[rec.Shard] = keys
	return nil
}

// copyDir copies the regular files of src into a fresh temp dir, so
// recovery can truncate and append without touching src.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoverFixture pins the on-disk format and the recovery rules
// against a committed directory written before Recover existed: a
// 2-shard list server's snapshot at boundary 1 (shard 0 at seq 2 with
// {1 3 5}, shard 1 at seq 1 with {40}), then segment 1 holding a
// record the snapshot covers (shard 0 seq 2), four records after it
// and half of a torn fifth. The server's recovery of that era rebuilt
// shard 0 = {5 7} at seq 4 and shard 1 = {40 41} at seq 3, and cut the
// segment back to its 289 good bytes.
func TestRecoverFixture(t *testing.T) {
	src := filepath.Join("testdata", "recover")
	// Same bytes: today's encoder reproduces the committed snapshot.
	want := AppendSnapshot(nil, &Snapshot{Shards: []Shard{
		{Seq: 2, State: []int64{1, 3, 5}},
		{Seq: 1, State: []int64{40}},
	}})
	got, err := os.ReadFile(filepath.Join(src, SnapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("committed snapshot differs from today's encoding of the same document")
	}

	dir := copyDir(t, src)
	m := make(setModel, 2)
	type applied struct {
		shard uint16
		seq   uint64
	}
	var log []applied
	next, seqs, err := Recover(dir, 2, m.restore, func(rec Record) error {
		log = append(log, applied{rec.Shard, rec.Seq})
		return m.apply(rec)
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if wantState := (setModel{{5, 7}, {40, 41}}); !reflect.DeepEqual(m, wantState) {
		t.Errorf("recovered state = %v, want %v", m, wantState)
	}
	if !slices.Equal(seqs, []uint64{4, 3}) || next != 1 {
		t.Errorf("recovered seqs %v, next segment %d; want [4 3], 1", seqs, next)
	}
	// The covered record (shard 0 seq 2) is skipped, not applied.
	if wantLog := []applied{{1, 2}, {0, 3}, {1, 3}, {0, 4}}; !slices.Equal(log, wantLog) {
		t.Errorf("applied records %v, want %v", log, wantLog)
	}
	if st, err := os.Stat(filepath.Join(dir, SegmentName(1))); err != nil || st.Size() != 289 {
		t.Errorf("segment after recovery: %v (err %v), want the 289 good bytes", st.Size(), err)
	}
}

// TestRecoverZeroTailFixture pins the tail rule against a committed
// directory as a crash leaves it: segment 0 as Roll left it, cut to
// its two records (shard 0 seq 1 adds {1 2}, shard 1 seq 1 adds {40}),
// and segment 1, the open one, holding two records (shard 0 seq 2
// removes 1 and adds 3, shard 1 seq 2 adds 41) followed by a zero tail
// (4 KiB here; a live segment carries up to one extent). Recovery
// replays both segments, reads the zeros as the end of the log and
// cuts segment 1 back to its 121 record bytes.
func TestRecoverZeroTailFixture(t *testing.T) {
	src := filepath.Join("testdata", "recover-zero-tail")
	// Same bytes: today's encoder writes the committed records.
	seg1 := AppendRecord(nil, 0, 2, []op.Op{{ID: 4, Kind: op.Remove, Key: 1}, {ID: 5, Kind: op.Add, Key: 3}})
	seg1 = AppendRecord(seg1, 1, 2, []op.Op{{ID: 6, Kind: op.Add, Key: 41}})
	want := map[string][]byte{
		SegmentName(0): AppendRecord(AppendRecord(nil, 0, 1, []op.Op{{ID: 1, Kind: op.Add, Key: 1}, {ID: 2, Kind: op.Add, Key: 2}}),
			1, 1, []op.Op{{ID: 3, Kind: op.Add, Key: 40}}),
		SegmentName(1): append(seg1, make([]byte, 4096)...),
	}
	if got := readDir(t, src); !reflect.DeepEqual(got, want) {
		t.Fatal("committed fixture differs from today's encoding of the same records")
	}

	dir := copyDir(t, src)
	m := make(setModel, 2)
	next, seqs, err := Recover(dir, 2, m.restore, m.apply)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if wantState := (setModel{{2, 3}, {40, 41}}); !reflect.DeepEqual(m, wantState) {
		t.Errorf("recovered state = %v, want %v", m, wantState)
	}
	if !slices.Equal(seqs, []uint64{2, 2}) || next != 1 {
		t.Errorf("recovered seqs %v, next segment %d; want [2 2], 1", seqs, next)
	}
	want[SegmentName(1)] = seg1
	if got := readDir(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("after recovery the segments are %d and %d bytes, want segment 0 untouched and segment 1 cut to its %d record bytes",
			len(got[SegmentName(0)]), len(got[SegmentName(1)]), len(seg1))
	}
}

// TestRecoverRefusesSeqGap: a shard whose seqs skip a number lost a
// record, and recovery must not paper over the hole.
func TestRecoverRefusesSeqGap(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 0, 1, 2)
	writeRecords(t, l, 1, 1, 1)
	writeRecords(t, l, 0, 4, 4)
	l.Close()
	var applied int
	_, _, err = Recover(dir, 2, nil, func(Record) error { applied++; return nil })
	if err == nil || !strings.Contains(err.Error(), "shard 0 sequence gap: have 2, next record is 4") {
		t.Fatalf("Recover over a seq gap: err = %v, want a shard 0 gap error", err)
	}
	if applied != 3 {
		t.Fatalf("applied %d records before the gap, want 3", applied)
	}
}

// TestRecoverRefusesCorruptSnapshot: Checkpoint prunes every older
// snapshot and segment, so when the only snapshot does not decode there
// is nothing to fall back to. Recovery must refuse by the snapshot's
// name, before replay truncates or removes anything, rather than report
// the gap the pruned segments leave behind.
func TestRecoverRefusesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 0, 1, 3)
	if err := l.Roll(); err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Shards: []Shard{{Seq: 3, State: []int64{1, 2, 3}}}}
	if err := Checkpoint(dir, l.Seg(), snap); err != nil {
		t.Fatal(err)
	}
	writeRecords(t, l, 0, 4, 4)
	l.Close()
	path := filepath.Join(dir, SnapshotName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	before := readDir(t, dir)
	called := 0
	_, _, err = Recover(dir, 1,
		func(int, []int64) error { called++; return nil },
		func(Record) error { called++; return nil })
	if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), SnapshotName(1)) {
		t.Fatalf("Recover with its only snapshot corrupt: err = %v, want ErrCorruptSnapshot naming %s", err, SnapshotName(1))
	}
	if called != 0 {
		t.Errorf("restore and apply ran %d times before the refusal", called)
	}
	if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("the refusal changed the directory")
	}
}

// readDir returns every file in dir by name with its contents.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
