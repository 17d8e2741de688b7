// kvstore: an ordered key-value index on the PIM-managed skip-list
// under a skewed (hot-range) workload, demonstrating the Section 4.2.1
// node-migration protocol. Without rebalancing, one vault serves 90% of
// the traffic; with rebalancing enabled, the hot range is split across
// vaults mid-run and both throughput and the size distribution recover.
//
// Run with:
//
//	go run ./examples/kvstore
package main

import (
	"fmt"

	"pimds/internal/core/pimskip"
	"pimds/internal/harness"
	"pimds/internal/model"
	"pimds/internal/sim"
)

const (
	keySpace = 1 << 12
	vaults   = 4
	clients  = 8
)

func main() {
	fmt.Println("ordered KV index on the PIM skip-list; 90% of requests hit the first quarter of the key space")
	fmt.Println()

	for _, rebalance := range []bool{false, true} {
		ops, sizes, migs := run(rebalance)
		fmt.Printf("rebalancing %-3v  throughput %-12s  migrations %-3d  vault sizes %v\n",
			rebalance, model.FormatOps(ops), migs, sizes)
	}
	fmt.Println()
	fmt.Println("with rebalancing on, the hot partition splits itself (Section 4.2.1's")
	fmt.Println("migration protocol) and the load spreads over more PIM cores")
	fmt.Println()
	demoMerge()
}

// demoMerge shows §4.2.1's second scheme: after a delete-heavy phase
// empties most of the key space, small adjacent partitions merge.
func demoMerge() {
	e := sim.NewEngine(sim.ConfigFromParams(model.DefaultParams()))
	s := pimskip.New(e, keySpace, vaults, 11)
	s.Rebalance = &pimskip.RebalanceConfig{MinLen: 50}
	s.MigBatch = 4
	// Sparse population: every partition below MinLen from the start.
	var keys []int64
	for k := int64(0); k < keySpace; k += 64 {
		keys = append(keys, k)
	}
	s.Preload(keys)

	g := harness.NewGenerator(33, harness.Uniform{N: keySpace},
		harness.Mix{RemovePct: 80, AddPct: 10, ContainsPct: 10})
	cl := s.NewClient(g.Stream())
	cl.Start()
	e.RunUntil(5 * sim.Millisecond)

	owners := 0
	var migs uint64
	for _, p := range s.Partitions() {
		owned := false
		for k := int64(0); k < keySpace; k += keySpace / 64 {
			if p.Owns(k) {
				owned = true
				break
			}
		}
		if owned {
			owners++
		}
		migs += p.Migrations
	}
	fmt.Printf("merge scheme: after a delete-heavy phase, %d merge migrations folded the\n", migs)
	fmt.Printf("sparse key space into %d of %d vaults still owning ranges\n", owners, vaults)
}

func run(rebalance bool) (opsPerSec float64, sizes []int, migrations uint64) {
	e := sim.NewEngine(sim.ConfigFromParams(model.DefaultParams()))
	s := pimskip.New(e, keySpace, vaults, 7)
	if rebalance {
		s.Rebalance = &pimskip.RebalanceConfig{MaxLen: 300}
		s.MigBatch = 4
	}

	// Insert-heavy skewed workload: a write-mostly index ingesting
	// keys that cluster in one region (e.g. recent timestamps).
	for i := 0; i < clients; i++ {
		g := harness.NewGenerator(int64(100+i),
			harness.HotRange{N: keySpace, HotPct: 90, FracPct: 25},
			harness.Mix{AddPct: 60, RemovePct: 30, ContainsPct: 10})
		s.NewClient(g.Stream()).Start()
	}

	_, ops := sim.Measure(e, func() {}, s.Ops(), 500*sim.Microsecond, 20*sim.Millisecond)

	for _, p := range s.Partitions() {
		sizes = append(sizes, p.Len())
		migrations += p.Migrations
	}
	return ops, sizes, migrations
}
