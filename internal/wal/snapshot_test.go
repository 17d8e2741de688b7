package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{Shards: []Shard{
		{Seq: 12, State: []int64{1, 2, 3}},
		{Seq: 0, State: nil},
		{Seq: 7, State: []int64{-9, 1 << 40}},
	}}
}

func TestSnapshotRoundTrip(t *testing.T) {
	doc := sampleSnapshot()
	buf := AppendSnapshot(nil, doc)
	got, err := DecodeSnapshot(buf)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if len(got.Shards) != len(doc.Shards) {
		t.Fatalf("decoded %d shards, want %d", len(got.Shards), len(doc.Shards))
	}
	for i := range doc.Shards {
		if got.Shards[i].Seq != doc.Shards[i].Seq {
			t.Fatalf("shard %d seq = %d, want %d", i, got.Shards[i].Seq, doc.Shards[i].Seq)
		}
		if len(got.Shards[i].State) != len(doc.Shards[i].State) {
			t.Fatalf("shard %d has %d vals, want %d", i, len(got.Shards[i].State), len(doc.Shards[i].State))
		}
		for j, v := range doc.Shards[i].State {
			if got.Shards[i].State[j] != v {
				t.Fatalf("shard %d val %d = %d, want %d", i, j, got.Shards[i].State[j], v)
			}
		}
	}
	// Canonical: re-encoding the decoded doc is byte-identical.
	if !bytes.Equal(AppendSnapshot(nil, got), buf) {
		t.Fatal("re-encoded doc differs")
	}
}

func TestDecodeSnapshotRejectsDamage(t *testing.T) {
	buf := AppendSnapshot(nil, sampleSnapshot())
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-4] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 1; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		bad := tc.mut(append([]byte(nil), buf...))
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("%s: decode accepted damaged doc", tc.name)
		}
	}
}

func TestWriteLatestPrune(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := Latest(dir); err != nil || ok {
		t.Fatalf("Latest on empty dir = ok %v, err %v", ok, err)
	}
	d1 := &Snapshot{Shards: []Shard{{Seq: 1, State: []int64{1}}}}
	d2 := &Snapshot{Shards: []Shard{{Seq: 2, State: []int64{1, 2}}}}
	if err := writeSnapshot(dir, 1, d1); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	if err := writeSnapshot(dir, 4, d2); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	doc, seg, ok, err := Latest(dir)
	if err != nil || !ok {
		t.Fatalf("Latest: ok %v, err %v", ok, err)
	}
	if seg != 4 || !reflect.DeepEqual(doc, d2) {
		t.Fatalf("Latest = seg %d doc %+v, want seg 4 %+v", seg, doc, d2)
	}
	// A corrupt newest snapshot falls back to the older one.
	path := filepath.Join(dir, SnapshotName(4))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	doc, seg, ok, err = Latest(dir)
	if err != nil || !ok || seg != 1 || !reflect.DeepEqual(doc, d1) {
		t.Fatalf("Latest with corrupt newest = seg %d ok %v err %v, want fallback to seg 1", seg, ok, err)
	}
	// Prune removes snapshots below the boundary.
	if err := prune(dir, 4); err != nil {
		t.Fatalf("prune: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotName(1))); !os.IsNotExist(err) {
		t.Fatalf("snap 1 survived prune: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snap 4 pruned: %v", err)
	}
	// No temp files left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, ok := parseName(e.Name(), "snap-%d.snap", SnapshotName); !ok {
			t.Fatalf("foreign file left in snapshot dir: %s", e.Name())
		}
	}
}
