package pimskip

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pimds/internal/op"
	"pimds/internal/sim"
)

// TestRangeSetAgainstBitmap: add/remove/containsKey/covers/overlaps
// agree with a brute-force bitmap reference under random operations.
func TestRangeSetAgainstBitmap(t *testing.T) {
	const space = 64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rs rangeSet
		var ref [space]bool

		for step := 0; step < 40; step++ {
			low := rng.Int63n(space)
			high := low + 1 + rng.Int63n(space-low)
			if rng.Intn(2) == 0 {
				rs = rs.add(low, high)
				for i := low; i < high; i++ {
					ref[i] = true
				}
			} else {
				// remove requires single-range coverage; only apply
				// when the reference says the whole span is set (a
				// conservative approximation of the precondition).
				if rs.covers(low, high) {
					rs = rs.remove(low, high)
					for i := low; i < high; i++ {
						ref[i] = false
					}
				}
			}

			// Invariants: disjoint, sorted, non-empty ranges.
			for i := range rs {
				if rs[i].Low >= rs[i].High {
					return false
				}
				if i > 0 && rs[i-1].High >= rs[i].Low {
					return false
				}
			}
			// Point membership agrees with the reference.
			for k := int64(0); k < space; k++ {
				if rs.containsKey(k) != ref[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRangeSetCoversAndOverlaps(t *testing.T) {
	var rs rangeSet
	rs = rs.add(10, 20)
	rs = rs.add(30, 40)
	if !rs.covers(10, 20) || !rs.covers(12, 18) || rs.covers(10, 25) || rs.covers(15, 35) {
		t.Error("covers broken")
	}
	if !rs.overlaps(19, 31) || rs.overlaps(20, 30) || !rs.overlaps(5, 11) || rs.overlaps(40, 50) {
		t.Error("overlaps broken")
	}
	// Adjacent adds merge.
	rs = rs.add(20, 30)
	if len(rs) != 1 || rs[0].Low != 10 || rs[0].High != 40 {
		t.Errorf("merge broken: %v", rs)
	}
}

// TestRandomMigrationStorm: random sequences of migrations under load
// never lose, duplicate or strand keys, and every migration completes.
func TestRandomMigrationStorm(t *testing.T) {
	f := func(seed int64) bool {
		const space = 256
		const k = 4
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine(testConfig())
		s := New(e, space, k, uint64(seed)+1)
		s.MigBatch = 1 + rng.Intn(4)
		var keys []int64
		for key := int64(0); key < space; key += 3 {
			keys = append(keys, key)
		}
		s.Preload(keys)

		adds := make([]int64, space)
		removes := make([]int64, space)
		var clients []*Client
		for i := 0; i < 4; i++ {
			cl := s.NewClient(balancedOps(seed+int64(i), space))
			onOp(cl, func(_, _ sim.Time, o op.Op, ok bool) {
				if !ok {
					return
				}
				if o.Kind == op.Add {
					adds[o.Key]++
				} else if o.Kind == op.Remove {
					removes[o.Key]++
				}
			})
			cl.Start()
			clients = append(clients, cl)
		}

		// Fire 5 random migration commands at random times; invalid
		// ones (not owned / locked / busy) are dropped by the core.
		for i := 0; i < 5; i++ {
			e.RunFor(sim.Time(rng.Intn(100)) * sim.Microsecond)
			from := rng.Intn(k)
			to := rng.Intn(k)
			low := rng.Int63n(space - 1)
			high := low + 1 + rng.Int63n(space-low)
			s.TriggerMigration(from, low, high, to)
		}
		e.RunFor(3 * sim.Millisecond)
		for _, cl := range clients {
			cl.Stop()
		}
		e.Run()

		// All migrations done, nothing locked or incoming.
		for _, p := range s.parts {
			if p.mig != nil || len(p.locked) != 0 || len(p.incoming) != 0 {
				return false
			}
		}
		// Ownership covers the whole space exactly once.
		covered := make([]int, space)
		for _, p := range s.parts {
			for _, r := range p.owns {
				for i := r.Low; i < r.High && i < space; i++ {
					covered[i]++
				}
			}
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		// Conservation.
		present := map[int64]bool{}
		for _, key := range s.Keys() {
			if present[key] {
				return false
			}
			present[key] = true
		}
		preloaded := map[int64]bool{}
		for _, key := range keys {
			preloaded[key] = true
		}
		for key := int64(0); key < space; key++ {
			bal := adds[key] - removes[key]
			if preloaded[key] {
				bal++
			}
			want := int64(0)
			if present[key] {
				want = 1
			}
			if bal != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
