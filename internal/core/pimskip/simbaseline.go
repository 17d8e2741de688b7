package pimskip

import (
	"pimds/internal/cds/seqskip"
	"pimds/internal/op"
	"pimds/internal/sim"
)

// Virtual-time CPU baselines for Table 2 / Figure 4, charging exactly
// what the analytical model counts (β memory accesses per operation at
// the appropriate latency, plus the flat-combining publication-list
// accesses the model neglects).

// SimLockFree simulates the lock-free skip-list (Table 2 row 1): p CPU
// threads traverse a shared skip-list in parallel at Lcpu per node
// visited. Matching the model, CAS costs are ignored unless ChargeCAS
// is set, which adds one Latomic per successful mutation — the paper's
// "their actual performance could be even worse" remark, kept as an
// ablation.
type SimLockFree struct {
	seq  *seqskip.List
	cpus []*sim.CPU
}

// NewSimLockFree creates the baseline with p client CPUs issuing the
// streams produced by next.
func NewSimLockFree(e *sim.Engine, p int, chargeCAS bool, next func(cpu int, seq uint64) op.Op) *SimLockFree {
	s := &SimLockFree{seq: seqskip.New(0xA5A5)}
	for i := 0; i < p; i++ {
		i := i
		cpu := e.NewCPU(nil)
		var seq uint64
		line := &sim.AtomicLine{} // per-thread: uncontended CAS cost only
		sim.Loop(cpu, func(c *sim.CPU) {
			o := next(i, seq)
			seq++
			s.seq.ResetSteps()
			result := s.seq.Apply(o)
			c.MemReadN(int(s.seq.Steps()))
			if (o.Kind == op.Add || o.Kind == op.Remove) && result {
				c.MemWrite()
				if chargeCAS {
					c.Atomic(line)
				}
			}
			c.CountOp()
		})
		s.cpus = append(s.cpus, cpu)
	}
	return s
}

// Preload inserts keys at no cost before the simulation starts.
func (s *SimLockFree) Preload(keys []int64) {
	for _, k := range keys {
		s.seq.AddKey(k)
	}
}

// Ops returns the snapshot function for sim.Measure.
func (s *SimLockFree) Ops() func() uint64 { return sim.OpsOfCPUs(s.cpus) }

// Len returns the number of stored keys.
func (s *SimLockFree) Len() int { return s.seq.Len() }

// SimFCSkip simulates the flat-combining skip-list with k partitions
// (Table 2 rows 2 and 4): k combiner CPUs each serve a disjoint key
// range. The p client threads' pending requests are spread over the
// partitions by key, so each combiner pass serves the requests routed
// to it; each served request costs two Lllc publication accesses plus
// its traversal at Lcpu per node.
type SimFCSkip struct {
	combiners []*sim.CPU
	seqs      []*seqskip.List
}

// NewSimFCSkip creates the baseline: k partitions over [0, keySpace),
// p client threads, operation streams produced per partition by next
// (the harness routes a shared stream by key).
func NewSimFCSkip(e *sim.Engine, keySpace int64, k, p int, next func(part int, seq uint64) op.Op) *SimFCSkip {
	if k < 1 || p < 1 {
		panic("pimskip: need k >= 1 and p >= 1")
	}
	s := &SimFCSkip{}
	// Each combiner's batch is its share of the p blocked clients.
	batch := p / k
	if batch < 1 {
		batch = 1
	}
	// A combiner is one of the p client threads, so at most min(k, p)
	// partitions are being combined at any moment.
	lanes := k
	if p < lanes {
		lanes = p
	}
	for i := 0; i < k; i++ {
		s.seqs = append(s.seqs, seqskip.New(0xBEEF+uint64(i)))
	}
	for i := 0; i < lanes; i++ {
		i := i
		seq := s.seqs[i]
		comb := e.NewCPU(nil)
		var n uint64
		sim.Loop(comb, func(c *sim.CPU) {
			for j := 0; j < batch; j++ {
				o := next(i, n)
				n++
				seq.ResetSteps()
				result := seq.Apply(o)
				c.MemReadN(int(seq.Steps()))
				c.LLCRead()  // publication slot
				c.LLCWrite() // result
				if (o.Kind == op.Add || o.Kind == op.Remove) && result {
					c.MemWrite()
				}
				c.CountOp()
			}
		})
		s.combiners = append(s.combiners, comb)
	}
	return s
}

// PreloadPartition inserts keys into partition i at no cost.
func (s *SimFCSkip) PreloadPartition(i int, keys []int64) {
	for _, k := range keys {
		s.seqs[i].AddKey(k)
	}
}

// Ops returns the snapshot function for sim.Measure.
func (s *SimFCSkip) Ops() func() uint64 { return sim.OpsOfCPUs(s.combiners) }

// Len returns the total number of stored keys.
func (s *SimFCSkip) Len() int {
	total := 0
	for _, seq := range s.seqs {
		total += seq.Len()
	}
	return total
}
