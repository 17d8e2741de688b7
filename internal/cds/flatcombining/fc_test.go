package flatcombining

import (
	"sync"
	"testing"
)

// TestSingleThread: one thread's ops are applied in order with results.
func TestSingleThread(t *testing.T) {
	var log []int
	fc := New(func(batch []*Record[int, int]) {
		for _, rec := range batch {
			v := rec.Op()
			log = append(log, v)
			rec.Finish(v * 2)
		}
	})
	rec := fc.NewRecord()
	for i := 1; i <= 5; i++ {
		if got := fc.Do(rec, i); got != i*2 {
			t.Fatalf("Do(%d) = %d, want %d", i, got, i*2)
		}
	}
	if len(log) != 5 {
		t.Fatalf("applied %d ops, want 5", len(log))
	}
	for i, v := range log {
		if v != i+1 {
			t.Fatalf("log = %v, want [1 2 3 4 5]", log)
		}
	}
	if fc.Served != 5 {
		t.Errorf("Served = %d, want 5", fc.Served)
	}
	if fc.Combines == 0 || fc.Combines > 5 {
		t.Errorf("Combines = %d, want in [1,5]", fc.Combines)
	}
}

// TestConcurrentCounter: the combined structure is a plain counter; the
// final value must equal the total number of increments even though no
// individual increment is atomic (the combiner serializes them).
func TestConcurrentCounter(t *testing.T) {
	counter := 0
	fc := New(func(batch []*Record[int, int]) {
		for _, rec := range batch {
			counter += rec.Op()
			rec.Finish(counter)
		}
	})
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := fc.NewRecord()
			for i := 0; i < perG; i++ {
				if got := fc.Do(rec, 1); got < 1 || got > goroutines*perG {
					t.Errorf("observed counter %d out of range", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*perG {
		t.Errorf("counter = %d, want %d", counter, goroutines*perG)
	}
	if fc.Served != goroutines*perG {
		t.Errorf("Served = %d, want %d", fc.Served, goroutines*perG)
	}
}

// TestResultsRoutedToRightThread: each thread must receive the result
// of its own request, never a neighbor's.
func TestResultsRoutedToRightThread(t *testing.T) {
	fc := New(func(batch []*Record[int, int]) {
		for _, rec := range batch {
			rec.Finish(rec.Op() + 1000)
		}
	})
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := fc.NewRecord()
			for i := 0; i < 3000; i++ {
				op := g*1_000_000 + i
				if got := fc.Do(rec, op); got != op+1000 {
					t.Errorf("goroutine %d got result %d for op %d", g, got, op)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatching: under concurrency, at least some combiner passes should
// serve more than one request (this is probabilistic but overwhelmingly
// likely with blocked waiters).
func TestBatching(t *testing.T) {
	fc := New(func(batch []*Record[int, struct{}]) {
		for _, rec := range batch {
			rec.Finish(struct{}{})
		}
	})
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := fc.NewRecord()
			for i := 0; i < perG; i++ {
				fc.Do(rec, i)
			}
		}()
	}
	wg.Wait()
	if fc.Served != goroutines*perG {
		t.Fatalf("Served = %d, want %d", fc.Served, goroutines*perG)
	}
	if fc.Combines >= fc.Served {
		t.Logf("no batching observed (combines=%d served=%d); legal but unusual", fc.Combines, fc.Served)
	}
}
