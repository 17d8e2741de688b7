package harness

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// HostThroughput measures a real (goroutine-based) concurrent data
// structure: it runs p worker goroutines in a closed loop for the
// measurement window (after a warmup) and returns operations per
// second. worker is called once per goroutine and returns that
// goroutine's per-operation function.
//
// This is the paper's host-emulation methodology: the flat-combining
// structures' host throughput, multiplied by r1, estimates the
// PIM-managed structures (Figures 2 and 4).
func HostThroughput(p int, warmup, measure time.Duration, worker func(tid int, rng *rand.Rand) func()) float64 {
	var (
		started   = make(chan struct{})
		stop      atomic.Bool
		measuring atomic.Bool
		counted   atomic.Int64
		wg        sync.WaitGroup
	)
	for tid := 0; tid < p; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			op := worker(tid, rand.New(rand.NewSource(int64(tid)*7919+1)))
			<-started
			for !stop.Load() {
				op()
				if measuring.Load() {
					counted.Add(1)
				}
			}
		}(tid)
	}
	close(started)
	time.Sleep(warmup)
	measuring.Store(true)
	t0 := time.Now()
	time.Sleep(measure)
	measuring.Store(false)
	elapsed := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	return float64(counted.Load()) / elapsed.Seconds()
}

// hostSet is the add/remove surface every host set structure shares.
type hostSet interface {
	Add(k int64) bool
	Remove(k int64) bool
}

// setMix measures a 50/50 add/remove mix with keys drawn from kd on p
// goroutines, over a set prefilled with PreloadKeys(kd.Space()).
// handle returns one goroutine's view of the set (a flat-combining
// handle, or the structure itself via shared): one view prefills, then
// every worker takes its own.
func setMix[S hostSet](o Options, p int, kd KeyDist, handle func() S) float64 {
	h := handle()
	for _, k := range PreloadKeys(kd.Space()) {
		h.Add(k)
	}
	measure := o.hostMeasure()
	return HostThroughput(p, measure/5, measure, func(tid int, rng *rand.Rand) func() {
		h := handle()
		return func() {
			k := kd.Next(rng)
			if rng.Intn(2) == 0 {
				h.Add(k)
			} else {
				h.Remove(k)
			}
		}
	})
}

// pairMix measures a producer/consumer pair on p goroutines over a
// structure prefilled with 0..prefill-1: even goroutines put, odd ones
// take. handle works as in setMix; put and take are the structure's
// method expressions.
func pairMix[H any](o Options, p int, prefill int64, handle func() H, put func(H, int64), take func(H) (int64, bool)) float64 {
	h := handle()
	for i := int64(0); i < prefill; i++ {
		put(h, i)
	}
	measure := o.hostMeasure()
	return HostThroughput(p, measure/5, measure, func(tid int, _ *rand.Rand) func() {
		h := handle()
		if tid%2 == 0 {
			return func() { put(h, 1) }
		}
		return func() { take(h) }
	})
}

// shared is the handle factory of a structure every goroutine uses
// directly.
func shared[T any](v T) func() T { return func() T { return v } }
