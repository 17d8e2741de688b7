package pimlist

import (
	"pimds/internal/cds/seqlist"
	"pimds/internal/op"
	"pimds/internal/sim"
)

// This file provides the CPU-side linked-list baselines of Table 1 as
// virtual-time simulations, so that all five rows can be measured under
// the identical workload and latency model. They charge exactly the
// costs the analytical model counts: one Lcpu per traversed node for
// CPU threads, plus (for flat combining) two Lllc publication-list
// accesses per served request, which the paper's closed forms neglect
// as lower-order terms.

// SimFineGrained simulates the linked-list with fine-grained locks
// (Table 1 row 1): p CPU threads traverse a shared list in parallel at
// Lcpu per node. Matching the model, lock handoffs and contention are
// not charged.
type SimFineGrained struct {
	seq  *seqlist.List
	cpus []*sim.CPU
}

// NewSimFineGrained creates the baseline with p client CPUs issuing the
// operation streams produced by next (one generator per CPU).
func NewSimFineGrained(e *sim.Engine, p int, next func(cpu int, seq uint64) op.Op) *SimFineGrained {
	s := &SimFineGrained{seq: seqlist.New()}
	for i := 0; i < p; i++ {
		i := i
		cpu := e.NewCPU(nil)
		var seq uint64
		sim.Loop(cpu, func(c *sim.CPU) {
			o := next(i, seq)
			seq++
			s.seq.ResetSteps()
			result := s.seq.Apply(o)
			c.MemReadN(int(s.seq.Steps()))
			if (o.Kind == op.Add || o.Kind == op.Remove) && result {
				c.MemWrite()
			}
			c.CountOp()
		})
		s.cpus = append(s.cpus, cpu)
	}
	return s
}

// Preload inserts keys at no cost before the simulation starts.
func (s *SimFineGrained) Preload(keys []int64) {
	for _, k := range keys {
		s.seq.AddKey(k)
	}
}

// Ops returns the snapshot function for sim.Measure.
func (s *SimFineGrained) Ops() func() uint64 { return sim.OpsOfCPUs(s.cpus) }

// Len returns the number of stored keys.
func (s *SimFineGrained) Len() int { return s.seq.Len() }

// SimFCList simulates the flat-combining linked-list (Table 1 rows 2
// and 4): a single combiner CPU repeatedly serves a batch of p pending
// requests — one per client thread, all of which are assumed blocked
// publishing (the saturated regime of Figure 2). Each served request
// costs two last-level-cache accesses (read the slot, write the
// result); traversal nodes cost Lcpu each. With combining, the batch is
// served in one traversal; without, each request gets its own.
type SimFCList struct {
	seq       *seqlist.List
	combiner  *sim.CPU
	combining bool
	batch     int

	ops     []op.Op
	results []bool
}

// NewSimFCList creates the baseline. p is the number of client threads
// (hence the batch size); next produces the combined operation stream.
func NewSimFCList(e *sim.Engine, p int, combining bool, next func(seq uint64) op.Op) *SimFCList {
	s := &SimFCList{seq: seqlist.New(), combining: combining, batch: p, results: make([]bool, p)}
	var seq uint64
	s.combiner = e.NewCPU(nil)
	sim.Loop(s.combiner, func(c *sim.CPU) {
		s.ops = s.ops[:0]
		for i := 0; i < s.batch; i++ {
			s.ops = append(s.ops, next(seq))
			seq++
		}
		s.seq.ResetSteps()
		results := s.results
		if s.combining {
			s.seq.ApplyBatchInto(s.ops, results)
		} else {
			for i, o := range s.ops {
				results[i] = s.seq.Apply(o)
			}
		}
		c.MemReadN(int(s.seq.Steps()))
		for i := range s.ops {
			c.LLCRead()  // read the publication slot
			c.LLCWrite() // write the result back
			if (s.ops[i].Kind == op.Add || s.ops[i].Kind == op.Remove) && results[i] {
				c.MemWrite()
			}
			c.CountOp()
		}
	})
	return s
}

// Preload inserts keys at no cost before the simulation starts.
func (s *SimFCList) Preload(keys []int64) {
	for _, k := range keys {
		s.seq.AddKey(k)
	}
}

// Ops returns the snapshot function for sim.Measure.
func (s *SimFCList) Ops() func() uint64 {
	return sim.OpsOfCPUs([]*sim.CPU{s.combiner})
}

// Len returns the number of stored keys.
func (s *SimFCList) Len() int { return s.seq.Len() }
