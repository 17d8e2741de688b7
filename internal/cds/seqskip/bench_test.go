package seqskip_test

import (
	"math/rand"
	"sync"
	"testing"

	"pimds/internal/cds/seqskip"
	"pimds/internal/op"
)

// The churned list mirrors shard 0 of bench's skip_scan: keys [0, 1<<15)
// of a two-shard 1<<16 key space, every other key preloaded by two
// connections in 512-key frames that arrive interleaved, then a
// 50/10/10 contains/add/remove mix with 30 % range scans (span 256,
// limit 64) over uniform keys.
const (
	churnKeySpace = 1 << 15
	churnPreload  = 512
	churnOps      = 500000
	scanSpan      = 256
	scanLimit     = 64
)

var (
	churnedOnce sync.Once
	churned     *seqskip.List
	churnRng    *rand.Rand
)

// churnOp is one op of the mix; Kind is ignored for scans.
type churnOp struct {
	scan bool
	op   op.Op
}

func drawOp(rng *rand.Rand) churnOp {
	k := rng.Int63n(churnKeySpace)
	switch r := rng.Intn(100); {
	case r < 30:
		return churnOp{scan: true, op: op.Op{Key: k}}
	case r < 80:
		return churnOp{op: op.Op{Kind: op.Contains, Key: k}}
	case r < 90:
		return churnOp{op: op.Op{Kind: op.Add, Key: k}}
	}
	return churnOp{op: op.Op{Kind: op.Remove, Key: k}}
}

func (c churnOp) apply(l *seqskip.List, arena []int64) []int64 {
	if c.scan {
		arena, _, _ = l.RangeScanInto(c.op.Key, c.op.Key+scanSpan, scanLimit, arena[:0])
		return arena
	}
	l.Apply(c.op)
	return arena
}

// churnedList builds the list once, with shard 0's tower seed: the
// preload, then churnOps ops, so that removed nodes have been reused
// at random key positions and the list re-laid out many times over.
func churnedList() (*seqskip.List, *rand.Rand) {
	churnedOnce.Do(func() {
		l := seqskip.New(1)
		var conn [2][]int64
		for k := int64(0); k < churnKeySpace; k += 2 {
			c := (k >> 1) % 2
			conn[c] = append(conn[c], k)
		}
		for len(conn[0]) > 0 || len(conn[1]) > 0 {
			for c := range conn {
				n := min(len(conn[c]), churnPreload)
				for _, k := range conn[c][:n] {
					l.AddKey(k)
				}
				conn[c] = conn[c][n:]
			}
		}
		rng := rand.New(rand.NewSource(1))
		arena := make([]int64, 0, scanLimit)
		for i := 0; i < churnOps; i++ {
			arena = drawOp(rng).apply(l, arena)
		}
		churned, churnRng = l, rng
	})
	return churned, churnRng
}

// BenchmarkSkipScanChurned times one op of the skip_scan mix against a
// churned ~16 k-key list. The timed ops cycle through a pre-drawn set,
// so drawing keys stays off the clock.
func BenchmarkSkipScanChurned(b *testing.B) {
	l, rng := churnedList()
	ops := make([]churnOp, 1<<16)
	for i := range ops {
		ops[i] = drawOp(rng)
	}
	arena := make([]int64, 0, scanLimit)
	l.ResetSteps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena = ops[i%len(ops)].apply(l, arena)
	}
	b.StopTimer()
	b.ReportMetric(float64(l.Steps())/float64(b.N), "steps/op")
}
