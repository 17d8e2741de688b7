package pimskip

import (
	"testing"

	"pimds/internal/op"
	"pimds/internal/sim"
)

// TestAutoMergeDrainsSmallPartition: with a remove-heavy workload that
// empties the low part of the key space, the merge scheme (§4.2.1
// scheme 2) should migrate the shrunken partition's range to its
// neighbor.
func TestAutoMergeDrainsSmallPartition(t *testing.T) {
	const space = 1024
	e := sim.NewEngine(testConfig())
	s := New(e, space, 4, 19)
	s.Rebalance = &RebalanceConfig{MinLen: 40}
	s.MigBatch = 4

	// Preload only partitions 0 and 1 lightly: both below MinLen.
	var keys []int64
	for k := int64(0); k < 512; k += 16 {
		keys = append(keys, k)
	}
	s.Preload(keys)

	// A client removing keys from partition 0's range triggers the
	// merge check.
	i := int64(0)
	cl := s.NewClient(func(uint64) op.Op {
		i++
		return op.Op{Kind: op.Remove, Key: (i * 16) % 256}
	})
	cl.Start()
	e.RunUntil(2 * sim.Millisecond)
	cl.Stop()
	e.Run()

	if s.parts[0].Migrations == 0 {
		t.Fatal("no merge migration happened")
	}
	// Partition 0 should no longer own its original range start.
	if s.parts[0].Owns(300) {
		t.Error("partition 0 still owns its range after merging away")
	}
	// Keys must be conserved (no duplicates, all in range).
	seen := map[int64]bool{}
	for _, k := range s.Keys() {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
}

// TestMergeRespectsBusyNeighbor: no merge happens into a partition
// that is itself above MinLen.
func TestMergeRespectsBusyNeighbor(t *testing.T) {
	const space = 1024
	e := sim.NewEngine(testConfig())
	s := New(e, space, 2, 21)
	s.Rebalance = &RebalanceConfig{MinLen: 10}

	// Partition 1 is big; partition 0 small but its only neighbor is
	// too large to merge with.
	var keys []int64
	for k := int64(512); k < 1024; k += 2 {
		keys = append(keys, k)
	}
	s.Preload(keys)
	s.Preload([]int64{5})

	cl := s.NewClient(func(uint64) op.Op {
		return op.Op{Kind: op.Remove, Key: 5}
	})
	cl.Start()
	e.RunUntil(100 * sim.Microsecond)
	cl.Stop()
	e.Run()

	if s.parts[0].Migrations != 0 {
		t.Error("merge should not trigger into a large neighbor")
	}
}

// TestPartOwning maps keys back to partitions.
func TestPartOwning(t *testing.T) {
	e := sim.NewEngine(testConfig())
	s := New(e, 100, 4, 3)
	for i, p := range s.parts {
		lo := int64(i) * 25
		if got := s.partOwning(lo); got != p {
			t.Errorf("partOwning(%d) = partition %v, want %d", lo, got, i)
		}
	}
}

// TestRemoteMigrationEquivalent: migrating by direct remote-vault
// writes (footnote 2) moves the same keys as the message protocol and
// keeps the structure consistent under load.
func TestRemoteMigrationEquivalent(t *testing.T) {
	cfg := testConfig()
	cfg.LpimRemote = 60 * sim.Nanosecond
	e := sim.NewEngine(cfg)
	s := New(e, 512, 2, 13)
	s.RemoteMigration = true
	s.MigBatch = 4
	var keys []int64
	for k := int64(0); k < 256; k += 2 {
		keys = append(keys, k)
	}
	s.Preload(keys)

	cl := s.NewClient(func(seq uint64) op.Op {
		return op.Op{Kind: op.Contains, Key: int64(seq*7) % 512}
	})
	cl.Start()
	e.RunUntil(50 * sim.Microsecond)
	s.TriggerMigration(0, 0, 256, 1)
	e.RunUntil(5 * sim.Millisecond)
	cl.Stop()
	e.Run()

	if s.parts[0].Len() != 0 {
		t.Errorf("source still holds %d keys", s.parts[0].Len())
	}
	if s.parts[1].Len() != len(keys) {
		t.Errorf("target holds %d keys, want %d", s.parts[1].Len(), len(keys))
	}
	if !s.parts[1].Owns(0) || s.parts[0].Owns(0) {
		t.Error("ownership did not transfer")
	}
	if got := s.parts[1].Core().Vault().Writes; got < uint64(len(keys)) {
		t.Errorf("target vault writes = %d, want ≥ %d (remote inserts)", got, len(keys))
	}
}
