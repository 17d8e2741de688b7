package seqlist_test

import (
	"math/rand"
	"sync"
	"testing"

	"pimds/internal/cds/seqlist"
	"pimds/internal/op"
)

// The churned list mirrors bench's list_combine shard: a 1<<15 key
// space, every other key preloaded by two connections in 512-op frames
// that arrive interleaved, then 64-op batches of 60/20/20
// contains/add/remove over uniform keys.
const (
	churnKeySpace = 1 << 15
	churnPreload  = 512
	churnBatch    = 64
	churnBatches  = 20000
)

var (
	churnedOnce sync.Once
	churned     *seqlist.List
	churnRng    *rand.Rand
)

// churnOps fills ops with one 60/20/20 batch.
func churnOps(rng *rand.Rand, ops []op.Op) {
	for i := range ops {
		kind := op.Contains
		switch r := rng.Intn(100); {
		case r >= 80:
			kind = op.Remove
		case r >= 60:
			kind = op.Add
		}
		ops[i] = op.Op{Kind: kind, Key: rng.Int63n(churnKeySpace)}
	}
}

// churnedList builds the list once: the preload, then churnBatches
// batches, so that removed nodes have been reused at random key
// positions many times over.
func churnedList() (*seqlist.List, *rand.Rand) {
	churnedOnce.Do(func() {
		l := seqlist.New()
		var conn [2][]op.Op
		for k := int64(0); k < churnKeySpace; k += 2 {
			c := (k >> 1) % 2
			conn[c] = append(conn[c], op.Op{Kind: op.Add, Key: k})
		}
		res := make([]bool, churnPreload)
		for len(conn[0]) > 0 || len(conn[1]) > 0 {
			for c := range conn {
				n := min(len(conn[c]), churnPreload)
				l.ApplyBatchInto(conn[c][:n], res[:n])
				conn[c] = conn[c][n:]
			}
		}
		rng := rand.New(rand.NewSource(1))
		ops := make([]op.Op, churnBatch)
		for i := 0; i < churnBatches; i++ {
			churnOps(rng, ops)
			l.ApplyBatchInto(ops, res[:churnBatch])
		}
		churned, churnRng = l, rng
	})
	return churned, churnRng
}

// BenchmarkApplyBatchChurned times one 64-op combining pass over a
// churned ~16 k-key list; ns/op is ns per batch. The timed batches
// cycle through a pre-drawn set, so drawing keys stays off the clock.
func BenchmarkApplyBatchChurned(b *testing.B) {
	l, rng := churnedList()
	batches := make([][]op.Op, 1024)
	for i := range batches {
		batches[i] = make([]op.Op, churnBatch)
		churnOps(rng, batches[i])
	}
	res := make([]bool, churnBatch)
	l.ResetSteps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ApplyBatchInto(batches[i%len(batches)], res)
	}
	b.StopTimer()
	b.ReportMetric(float64(l.Steps())/float64(b.N*churnBatch), "steps/op")
}
