package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const snapMagic = "PIMSNAP1"

// ErrCorruptSnapshot marks a snapshot document that fails its magic,
// CRC, or structural checks.
var ErrCorruptSnapshot = errors.New("wal: corrupt snapshot")

// Shard is one shard's captured state.
type Shard struct {
	// Seq is the shard's record seq the state includes: replay skips
	// records with seq ≤ Seq.
	Seq uint64
	// State is the backend's canonical dump (AppendState order).
	State []int64
}

// Snapshot is a whole-server snapshot: the document at segment boundary
// N captures, for every shard, a canonical state dump plus the record
// seq that state includes, so the segments below N can be pruned.
// Layout (little-endian):
//
//	magic "PIMSNAP1" (8) | uint32 crc | uint32 len | payload
//	payload:
//	    uint16 nshards
//	    per shard: uint64 seq | uint32 nvals | nvals × int64
type Snapshot struct {
	Shards []Shard
}

// AppendSnapshot encodes snap and returns the extended buffer. Encoding
// is canonical: equal snapshots encode byte-identically, which the
// replay determinism tests rely on.
func AppendSnapshot(buf []byte, snap *Snapshot) []byte {
	start := len(buf)
	buf = append(buf, snapMagic...)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // crc + len, patched below
	body := len(buf)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(snap.Shards)))
	for _, sh := range snap.Shards {
		buf = binary.LittleEndian.AppendUint64(buf, sh.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sh.State)))
		for _, v := range sh.State {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	payload := buf[body:]
	binary.LittleEndian.PutUint32(buf[start+len(snapMagic):], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(buf[start+len(snapMagic)+4:], uint32(len(payload)))
	return buf
}

// DecodeSnapshot parses one snapshot document.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	head := len(snapMagic) + 8
	if len(b) < head || string(b[:len(snapMagic)]) != snapMagic {
		return nil, ErrCorruptSnapshot
	}
	crc := binary.LittleEndian.Uint32(b[len(snapMagic):])
	n := int(binary.LittleEndian.Uint32(b[len(snapMagic)+4:]))
	if n < 2 || len(b) != head+n {
		return nil, ErrCorruptSnapshot
	}
	payload := b[head:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, ErrCorruptSnapshot
	}
	nshards := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	snap := &Snapshot{Shards: make([]Shard, nshards)}
	for i := 0; i < nshards; i++ {
		if len(payload) < 12 {
			return nil, ErrCorruptSnapshot
		}
		seq := binary.LittleEndian.Uint64(payload)
		nvals := int(binary.LittleEndian.Uint32(payload[8:]))
		payload = payload[12:]
		if len(payload) < 8*nvals {
			return nil, ErrCorruptSnapshot
		}
		vals := make([]int64, nvals)
		for j := range vals {
			vals[j] = int64(binary.LittleEndian.Uint64(payload[8*j:]))
		}
		payload = payload[8*nvals:]
		snap.Shards[i] = Shard{Seq: seq, State: vals}
	}
	if len(payload) != 0 {
		return nil, ErrCorruptSnapshot
	}
	return snap, nil
}

// Checkpoint makes snap the recovery point at segment boundary seg,
// then prunes every segment and snapshot it supersedes. The caller
// must have rolled the log to seg before taking the dumps, so every
// record in a pruned segment is covered by its shard's Seq; records
// racing into segment seg itself are resolved by Recover, per record.
//
// The document is written atomically — temp file, fsync, rename,
// directory fsync — so a torn snapshot never exists under its final
// name.
func Checkpoint(dir string, seg uint64, snap *Snapshot) error {
	if err := writeSnapshot(dir, seg, snap); err != nil {
		return err
	}
	return prune(dir, seg)
}

func writeSnapshot(dir string, seg uint64, snap *Snapshot) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	_, err = tmp.Write(AppendSnapshot(nil, snap))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, SnapshotName(seg)))
	}
	if err != nil {
		return err
	}
	return syncDir(dir)
}

// Latest loads the newest snapshot in dir that decodes, returning it,
// its segment boundary, and whether one exists. A corrupt snapshot is
// skipped in favor of an older one that decodes: recovery then replays
// a longer log tail instead of failing. But when snapshot files exist
// and none decodes, Latest returns an error wrapping ErrCorruptSnapshot
// that names the newest. Checkpoint writes through a temp file, so a
// torn write never carries a snapshot name: an undecodable snapshot is
// damage, and Checkpoint has already pruned the segments that replay
// would need without it.
func Latest(dir string) (*Snapshot, uint64, bool, error) {
	_, snaps, err := List(dir)
	for i := len(snaps) - 1; i >= 0 && err == nil; i-- {
		var b []byte
		if b, err = os.ReadFile(filepath.Join(dir, SnapshotName(snaps[i]))); err == nil {
			if snap, derr := DecodeSnapshot(b); derr == nil {
				return snap, snaps[i], true, nil
			}
		}
	}
	if err == nil && len(snaps) > 0 {
		err = fmt.Errorf("%w: %s, and no older snapshot decodes",
			ErrCorruptSnapshot, filepath.Join(dir, SnapshotName(snaps[len(snaps)-1])))
	}
	return nil, 0, false, err
}
