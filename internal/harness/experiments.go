package harness

import (
	"fmt"
	"time"

	"math/rand"
	"pimds/internal/cds/couplinglist"
	"pimds/internal/cds/faaqueue"
	"pimds/internal/cds/fclist"
	"pimds/internal/cds/fcqueue"
	"pimds/internal/cds/fcskip"
	"pimds/internal/cds/fcstack"
	"pimds/internal/cds/lazylist"
	"pimds/internal/cds/lockfreeskip"
	"pimds/internal/cds/msqueue"
	"pimds/internal/cds/seqlist"
	"pimds/internal/cds/seqskip"
	"pimds/internal/cds/treiberstack"
	"pimds/internal/core/pimhash"
	"pimds/internal/core/pimqueue"
	"pimds/internal/core/pimskip"
	"pimds/internal/core/pimstack"
	"pimds/internal/model"
	"pimds/internal/op"
	"pimds/internal/prof"
	"pimds/internal/sim"
)

// Options configures an experiment run.
type Options struct {
	Params model.Params
	Quick  bool // smaller sweeps and shorter windows
	// HostThreads caps the host-emulation thread sweep (defaults to a
	// paper-style 1..28 sweep capped by the machine; the simulator
	// sweep is always 1..28).
	HostThreads int
	// HostMeasure is the per-point host measurement window.
	HostMeasure time.Duration
	// Seed perturbs every simulator workload generator (see
	// SimOpts.Seed). 0 keeps the historical streams. Host-emulation
	// experiments measure wall-clock time and are not reproducible
	// regardless of seed.
	Seed int64
	// Dist selects the key distribution for the host-emulation set
	// experiments ("" = uniform; see ParseKeyDist for the spec syntax).
	// Simulator experiments keep their historical streams: the paper's
	// tables assume uniform keys, and skew there is studied by the
	// dedicated rebalance experiment.
	Dist string
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{
		Params:      model.DefaultParams(),
		HostThreads: 8,
		HostMeasure: 300 * time.Millisecond,
	}
}

func (o Options) simOpts() SimOpts {
	so := DefaultSimOpts()
	so.Params = o.Params
	so.Seed = o.Seed
	if o.Quick {
		so = so.quickened()
	}
	return so
}

func (o Options) threadSweep() []int {
	if o.Quick {
		return []int{1, 4, 8, 16, 28}
	}
	return []int{1, 2, 4, 8, 12, 16, 20, 24, 28}
}

func (o Options) hostSweep() []int {
	max := o.HostThreads
	if max < 1 {
		max = 1
	}
	var ps []int
	for _, p := range []int{1, 2, 4, 8, 16, 28} {
		if p <= max {
			ps = append(ps, p)
		}
	}
	return ps
}

// keyDist resolves the Dist spec over a key space. The binaries
// validate -dist up front, so a bad spec reaching this point is a
// programming error.
func (o Options) keyDist(space int64) KeyDist {
	kd, err := ParseKeyDist(o.Dist, space)
	if err != nil {
		panic(err)
	}
	return kd
}

func (o Options) hostMeasure() time.Duration {
	d := o.HostMeasure
	if d <= 0 {
		d = 300 * time.Millisecond
	}
	if o.Quick {
		d /= 3
	}
	return d
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	ID          string
	Description string
	Run         func(Options) []*Table
}

// Experiments returns the registry in a stable order.
func Experiments() []Experiment {
	exps := []Experiment{
		{"table1", "Table 1: analytical linked-list throughput + simulator cross-check", Table1Exp},
		{"table2", "Table 2: analytical skip-list throughput + simulator cross-check", Table2Exp},
		{"fig2", "Figure 2: linked-list throughput vs threads (simulator)", Fig2Exp},
		{"fig2-host", "Figure 2: linked-list throughput vs threads (host emulation)", Fig2HostExp},
		{"fig4", "Figure 4: skip-list throughput vs threads and partitions (simulator)", Fig4Exp},
		{"fig4-host", "Figure 4: skip-list throughput vs threads and partitions (host emulation)", Fig4HostExp},
		{"queue", "§5.2: FIFO queue bounds (model vs simulator)", QueueExp},
		{"queue-host", "§5.2: FIFO queue host-emulation baselines", QueueHostExp},
		{"queue-short", "§5.2: long vs short (single-segment) PIM queue", QueueShortExp},
		{"queue-pipeline", "Ablation: PIM queue pipelining on/off", QueuePipelineExp},
		{"queue-threshold", "Ablation: PIM queue segment-length threshold sweep", QueueThresholdExp},
		{"queue-notify", "Ablation: blocking vs non-blocking handoff notifications", QueueNotifyExp},
		{"queue-fatnodes", "Ablation: §5.1 fat-node enqueue combining", QueueFatNodesExp},
		{"queue-cpusplit", "Ablation: CPU-decided vs threshold segment creation (footnote 4)", QueueCPUSplitExp},
		{"mig-remote", "Ablation: migration by messages vs direct remote-vault access (footnote 2)", MigRemoteExp},
		{"list-claims", "§4.1 claims: naive loses at p ≥ r1; combining wins ≥1.5× at r1=3", ListClaimsExp},
		{"skip-claims", "§4.2 claims: k > p/r1 suffices; PIM ≈ r1 × FC", SkipClaimsExp},
		{"rebalance", "§4.2.1: skip-list rebalancing under a skewed workload", RebalanceExp},
		{"migbatch", "Ablation: migration batch size", MigBatchExp},
		{"r1sweep", "Ablation: PIM advantage as r1 varies", R1SweepExp},
		{"hash", "Extension: PIM-managed hash map vs lock-sharded CPU map", HashExp},
		{"latency", "Extension: response-time percentiles of the PIM structures", LatencyExp},
		{"stack", "Extension: PIM-managed stack vs Treiber and FC stacks (§5 method)", StackExp},
		{"stack-host", "Extension: stack host baselines (Treiber, FC, FC+elimination)", StackHostExp},
		{"bandwidth", "Ablation: §5.2's 'bandwidth is unlikely to become a bottleneck' claim", BandwidthExp},
		{"queue-slowcpu", "Failure injection: one slow CPU under each notification scheme", QueueSlowCPUExp},
		{"queue-scaling", "§5.2: queue throughput vs client count (saturation curves)", QueueScalingExp},
		{"list-sizes", "§4.1: PIM list advantage across list sizes", ListSizesExp},
		{"skip-combining", "§4.2: why combining helps lists but not skip-lists", SkipCombiningExp},
	}
	return exps
}

// FindExperiment looks up an experiment by id.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- Table 1 / Table 2 / queue bounds -------------------------------

// Table1Exp prints the analytical Table 1 next to simulator
// measurements under the same workload.
func Table1Exp(o Options) []*Table {
	const keySpace = 400
	const n = keySpace / 2
	p := 8
	so := o.simOpts()
	lc := model.ListConfig{N: n, P: p}

	t := &Table{
		Title:   fmt.Sprintf("Table 1 — linked-lists (n=%d, p=%d, r1=%v)", n, p, o.Params.R1),
		Columns: []string{"algorithm", "formula", "model ops/s", "sim ops/s", "p50", "p95", "p99"},
		Note:    "sim: uniform keys, balanced add/remove, virtual time; percentiles are inject→reply latency (message clients only)",
	}
	for _, a := range model.ListAlgorithms() {
		rows := model.Table1(o.Params, lc)
		row := rows[int(a)]
		res := SimList(so, a, p, keySpace)
		p50, p95, p99 := res.Percentiles()
		t.AddRow(row.Algorithm, row.Formula, row.OpsPerSec, res.Ops, p50, p95, p99)
	}
	return []*Table{t}
}

// Table2Exp prints the analytical Table 2 next to simulator
// measurements; β in the model column is the measured traversal length
// so the comparison is apples-to-apples.
func Table2Exp(o Options) []*Table {
	const keySpace = 1 << 14
	p := 16
	k := 4
	so := o.simOpts()

	pimRes, beta := SimSkipPIM(so, k, p, keySpace)
	if beta == 0 {
		beta = model.Beta(keySpace / 2)
	}
	sc := model.SkipConfig{N: keySpace / 2, P: p, K: k, BetaOverride: beta}

	t := &Table{
		Title:   fmt.Sprintf("Table 2 — skip-lists (N=%d, p=%d, k=%d, β=%.1f measured)", keySpace/2, p, k, beta),
		Columns: []string{"algorithm", "formula", "model ops/s", "sim ops/s", "p50", "p95", "p99"},
	}
	rows := model.Table2(o.Params, sc)
	pim1, _ := SimSkipPIM(so, 1, p, keySpace)
	sims := []RunResult{
		SimSkipLockFree(so, p, keySpace, false),
		SimSkipFC(so, 1, p, keySpace),
		pim1,
		SimSkipFC(so, k, p, keySpace),
		pimRes,
	}
	for i, row := range rows {
		p50, p95, p99 := sims[i].Percentiles()
		t.AddRow(row.Algorithm, row.Formula, row.OpsPerSec, sims[i].Ops, p50, p95, p99)
	}
	return []*Table{t}
}

// QueueExp prints the Section 5.2 bounds next to simulator
// measurements.
func QueueExp(o Options) []*Table {
	so := o.simOpts()
	p := 12
	qc := model.QueueConfig{P: p}

	pimRes := SimPIMQueue(so, dequeueSide(p))
	pim := pimRes.Ops
	faa := SimQueueFAA(so, 1, false).Ops // one side, serialized bound
	fc := SimQueueFC(so, 2*p, false).Ops / 2

	t := &Table{
		Title:   fmt.Sprintf("§5.2 — FIFO queues (p=%d per side, r1=%v r2=%v r3=%v)", p, o.Params.R1, o.Params.R2, o.Params.R3),
		Columns: []string{"algorithm", "bound", "model ops/s", "sim ops/s", "p50", "p95", "p99"},
		Note:    "PIM/FC and PIM/F&A ratios should be ≈ 2·r1/r2 and r1·r3",
	}
	rows := model.QueueTable(o.Params, qc)
	sims := []RunResult{{Ops: faa}, {Ops: fc}, pimRes}
	for i, row := range rows {
		p50, p95, p99 := sims[i].Percentiles()
		t.AddRow(row.Algorithm, row.Formula, row.OpsPerSec, sims[i].Ops, p50, p95, p99)
	}
	t.AddRow("PIM / FC ratio", "2·r1/r2", model.PIMQueueVsFCSpeedup(o.Params), pim/fc, "", "", "")
	t.AddRow("PIM / F&A ratio", "r1·r3", model.PIMQueueVsFAASpeedup(o.Params), pim/faa, "", "", "")
	// Footnote 5: the FC bound assumed publication slots hit the LLC;
	// charge the miss and the gap widens.
	fcMiss := SimQueueFC(so, 2*p, true).Ops / 2
	t.AddRow("FC queue, slots miss LLC (fn.5)", "1/(2·Lllc+Lcpu)", "—", fcMiss, "", "", "")
	return []*Table{t}
}

// --- Figure 2 --------------------------------------------------------

// Fig2Exp reproduces Figure 2 in the simulator: throughput vs thread
// count for the five linked-list variants.
func Fig2Exp(o Options) []*Table {
	const keySpace = 400 // list of ~200 nodes, like the paper's figure scale
	so := o.simOpts()
	t := &Table{
		Title: fmt.Sprintf("Figure 2 — linked-list throughput vs threads (n≈%d, sim)", keySpace/2),
		Columns: []string{"threads", "fine-grained locks", "FC", "FC+combining",
			"PIM naive", "PIM+combining"},
		Note: "shape to match the paper: PIM+combining on top, FC at the bottom, naive PIM loses to fine-grained beyond r1 threads",
	}
	for _, p := range o.threadSweep() {
		t.AddRow(p,
			SimList(so, model.FineGrainedLockList, p, keySpace).Ops,
			SimList(so, model.FCListNoCombining, p, keySpace).Ops,
			SimList(so, model.FCListCombining, p, keySpace).Ops,
			SimList(so, model.PIMListNoCombining, p, keySpace).Ops,
			SimList(so, model.PIMListCombining, p, keySpace).Ops,
		)
	}
	return []*Table{t}
}

// Fig2HostExp reproduces Figure 2 on the host: real goroutine
// implementations; the PIM estimate is r1 × the FC measurement, the
// paper's own extrapolation.
func Fig2HostExp(o Options) []*Table {
	const keySpace = 400
	r1 := o.Params.R1
	kd := o.keyDist(keySpace)

	t := &Table{
		Title: fmt.Sprintf("Figure 2 — linked-list throughput vs threads (n≈%d, host emulation)", keySpace/2),
		Columns: []string{"threads", "fine-grained locks", "hand-over-hand locks", "FC", "FC+combining",
			"PIM est (r1·FC)", "PIM+combining est (r1·FC+comb)"},
		Note: "host goroutines; PIM columns are the paper's r1-scaled estimates; keys: " + kd.Name(),
	}
	for _, p := range o.hostSweep() {
		fgl := setMix(o, p, kd, shared(lazylist.New()))
		hoh := setMix(o, p, kd, shared(couplinglist.New()))
		fc := setMix(o, p, kd, fclist.New(false).NewHandle)
		fcc := setMix(o, p, kd, fclist.New(true).NewHandle)
		t.AddRow(p, fgl, hoh, fc, fcc, r1*fc, r1*fcc)
	}
	return []*Table{t}
}

// --- Figure 4 --------------------------------------------------------

// Fig4Exp reproduces Figure 4 in the simulator: skip-list throughput
// vs threads for the lock-free baseline, FC with 1/4/8/16 partitions,
// and the PIM skip-list with 8/16 partitions.
func Fig4Exp(o Options) []*Table {
	const keySpace = 1 << 14
	so := o.simOpts()
	t := &Table{
		Title: "Figure 4 — skip-list throughput vs threads (sim)",
		Columns: []string{"threads", "lock-free", "FC k=1", "FC k=4", "FC k=8", "FC k=16",
			"PIM k=8", "PIM k=16"},
		Note: "shape to match the paper: PIM k=8/16 above lock-free through 28 threads",
	}
	for _, p := range o.threadSweep() {
		pim8, _ := SimSkipPIM(so, 8, p, keySpace)
		pim16, _ := SimSkipPIM(so, 16, p, keySpace)
		t.AddRow(p,
			SimSkipLockFree(so, p, keySpace, false).Ops,
			SimSkipFC(so, 1, p, keySpace).Ops,
			SimSkipFC(so, 4, p, keySpace).Ops,
			SimSkipFC(so, 8, p, keySpace).Ops,
			SimSkipFC(so, 16, p, keySpace).Ops,
			pim8.Ops, pim16.Ops,
		)
	}
	return []*Table{t}
}

// Fig4HostExp reproduces Figure 4 on the host with the real lock-free
// skip-list and partitioned FC skip-lists; PIM estimates are r1 × FC.
func Fig4HostExp(o Options) []*Table {
	const keySpace = 1 << 14
	r1 := o.Params.R1
	kd := o.keyDist(keySpace)

	t := &Table{
		Title: "Figure 4 — skip-list throughput vs threads (host emulation)",
		Columns: []string{"threads", "lock-free", "FC k=1", "FC k=4", "FC k=8", "FC k=16",
			"PIM k=8 est", "PIM k=16 est"},
		Note: "host goroutines; PIM columns are r1-scaled FC measurements; keys: " + kd.Name(),
	}
	for _, p := range o.hostSweep() {
		lf := setMix(o, p, kd, shared(lockfreeskip.New(42)))
		fcAt := func(k int) float64 { return setMix(o, p, kd, fcskip.New(keySpace, k, 7).NewHandle) }
		fc1, fc4, fc8, fc16 := fcAt(1), fcAt(4), fcAt(8), fcAt(16)
		t.AddRow(p, lf, fc1, fc4, fc8, fc16, r1*fc8, r1*fc16)
	}
	return []*Table{t}
}

// --- Queue experiments ----------------------------------------------

// QueueHostExp measures the real host-side queue baselines (FC queue,
// F&A queue, Michael–Scott) for context.
func QueueHostExp(o Options) []*Table {
	const prefill = 1 << 16
	t := &Table{
		Title:   "§5.2 — FIFO queue host baselines (mixed enq/deq, prefilled)",
		Columns: []string{"threads", "FC queue", "F&A queue", "Michael-Scott"},
		Note:    "real goroutine implementations on this host",
	}
	for _, p := range o.hostSweep() {
		fcq := pairMix(o, p, prefill, fcqueue.New().NewHandle, (*fcqueue.Handle).Enqueue, (*fcqueue.Handle).Dequeue)
		faq := pairMix(o, p, prefill, shared(faaqueue.New()), (*faaqueue.Queue).Enqueue, (*faaqueue.Queue).Dequeue)
		msq := pairMix(o, p, prefill, shared(msqueue.New()), (*msqueue.Queue).Enqueue, (*msqueue.Queue).Dequeue)
		t.AddRow(p, fcq, faq, msq)
	}
	return []*Table{t}
}

// QueueShortExp compares the long-queue (two ends on different cores)
// and short-queue (single shared segment) regimes.
func QueueShortExp(o Options) []*Table {
	so := o.simOpts()
	long := SimPIMQueue(so, QueueRegime{Cores: 2, Threshold: 1 << 30, Pipelining: true,
		Enqueuers: 10, Dequeuers: 10, PrefillLong: true}).Ops
	short := SimPIMQueue(so, QueueRegime{Cores: 1, Threshold: 1 << 30, Pipelining: true,
		Enqueuers: 10, Dequeuers: 10, PrefillLong: true}).Ops
	t := &Table{
		Title:   "§5.2 — PIM queue: long vs short queue",
		Columns: []string{"regime", "sim ops/s", "model"},
	}
	t.AddRow("long (separate segments)", long, 2*model.QueuePIM(o.Params, model.QueueConfig{P: 10}))
	t.AddRow("short (single segment)", short, 2*model.QueuePIM(o.Params, model.QueueConfig{P: 10, ShortQueue: true}))
	t.Note = "model column = both ends' combined bound"
	return []*Table{t}
}

// QueuePipelineExp is the pipelining on/off ablation.
func QueuePipelineExp(o Options) []*Table {
	so := o.simOpts()
	reg := dequeueSide(12)
	on := SimPIMQueue(so, reg).Ops
	reg.Pipelining = false
	off := SimPIMQueue(so, reg).Ops
	t := &Table{
		Title:   "Ablation — PIM queue pipelining (dequeue side, 12 clients)",
		Columns: []string{"pipelining", "sim ops/s", "expected"},
	}
	t.AddRow("on", on, "≈ 1/Lpim")
	t.AddRow("off", off, "≈ 1/(Lpim+Lmessage)")
	t.AddRow("speedup", on/off, "≈ 1 + Lmessage/Lpim")
	return []*Table{t}
}

// QueueThresholdExp sweeps the segment-length threshold.
func QueueThresholdExp(o Options) []*Table {
	so := o.simOpts()
	t := &Table{
		Title:   "Ablation — PIM queue segment threshold (4 cores, 6+6 clients)",
		Columns: []string{"threshold", "sim ops/s"},
		Note:    "smaller thresholds hand off more often; cost stays low because a handoff is one message",
	}
	for _, th := range []int{4, 16, 64, 256, 1024} {
		ops := SimPIMQueue(so, QueueRegime{Cores: 4, Threshold: th, Pipelining: true,
			Enqueuers: 6, Dequeuers: 6})
		t.AddRow(th, ops.Ops)
	}
	return []*Table{t}
}

// QueueNotifyExp compares the blocking and non-blocking notification
// schemes under frequent handoffs.
func QueueNotifyExp(o Options) []*Table {
	so := o.simOpts()
	t := &Table{
		Title:   "Ablation — handoff notification scheme (threshold 16, 4 cores, 6+6 clients)",
		Columns: []string{"scheme", "sim ops/s"},
	}
	nb := SimPIMQueue(so, QueueRegime{Cores: 4, Threshold: 16, Pipelining: true,
		Enqueuers: 6, Dequeuers: 6}).Ops
	bl := SimPIMQueue(so, QueueRegime{Cores: 4, Threshold: 16, Pipelining: true,
		BlockingNotify: true, Enqueuers: 6, Dequeuers: 6}).Ops
	t.AddRow("non-blocking (notify and continue)", nb)
	t.AddRow("blocking (wait for all acks)", bl)
	return []*Table{t}
}

// --- Claims and ablations -------------------------------------------

// ListClaimsExp checks the Section 4.1 claims in the simulator.
func ListClaimsExp(o Options) []*Table {
	so := o.simOpts()
	const keySpace = 400
	t := &Table{
		Title:   "§4.1 claims — linked-lists",
		Columns: []string{"claim", "lhs", "rhs", "holds"},
	}
	// Claim 1: naive PIM loses to fine-grained locks once p exceeds
	// r1 (at p = r1 the model predicts an exact tie, so test p = 4).
	naive := SimList(so, model.PIMListNoCombining, 4, keySpace).Ops
	fgl := SimList(so, model.FineGrainedLockList, 4, keySpace).Ops
	t.AddRow("naive PIM < fine-grained @ p=4 > r1", naive, fgl, naive < fgl)
	// Claim 2: PIM+combining ≥ 1.5 × fine-grained at r1 = 3, p = 8.
	pim := SimList(so, model.PIMListCombining, 8, keySpace).Ops
	fgl8 := SimList(so, model.FineGrainedLockList, 8, keySpace).Ops
	t.AddRow("PIM+combining ≥ 1.5×fine-grained @ p=8", pim, 1.5*fgl8, pim >= 1.5*fgl8*0.9)
	// Claim 3: PIM ≈ r1 × FC (both with combining).
	fcc := SimList(so, model.FCListCombining, 8, keySpace).Ops
	t.AddRow("PIM+combining ≈ r1 × FC+combining", pim, o.Params.R1*fcc, ratioNear(pim, o.Params.R1*fcc, 0.2))
	return []*Table{t}
}

// SkipClaimsExp checks the Section 4.2 claims in the simulator.
func SkipClaimsExp(o Options) []*Table {
	so := o.simOpts()
	const keySpace = 1 << 14
	p := 16
	t := &Table{
		Title:   "§4.2 claims — skip-lists",
		Columns: []string{"claim", "lhs", "rhs", "holds"},
	}
	_, beta := SimSkipPIM(so, 4, p, keySpace)
	kMin := model.MinKForPIMSkipWin(o.Params, model.SkipConfig{N: keySpace / 2, P: p, BetaOverride: beta})
	pimKRes, _ := SimSkipPIM(so, kMin, p, keySpace)
	pimK := pimKRes.Ops
	lf := SimSkipLockFree(so, p, keySpace, false).Ops
	t.AddRow(fmt.Sprintf("PIM k=%d (min k) > lock-free @ p=%d", kMin, p), pimK, lf, pimK > lf*0.95)

	pim4Res, _ := SimSkipPIM(so, 4, p, keySpace)
	pim4 := pim4Res.Ops
	fc4 := SimSkipFC(so, 4, p, keySpace).Ops
	t.AddRow("PIM k=4 ≈ r1 × FC k=4", pim4, o.Params.R1*fc4, ratioNear(pim4, o.Params.R1*fc4, 0.25))
	return []*Table{t}
}

// RebalanceExp runs the skewed workload with and without automatic
// rebalancing and reports throughput and final partition sizes.
func RebalanceExp(o Options) []*Table {
	so := o.simOpts()
	const keySpace = 1 << 12
	run := func(rebalance bool) (float64, []int) {
		e := sim.NewEngine(sim.ConfigFromParams(o.Params))
		s := pimskip.New(e, keySpace, 4, 31)
		if rebalance {
			s.Rebalance = &pimskip.RebalanceConfig{MaxLen: 400}
			s.MigBatch = 4
		}
		// Hot workload: 90% of requests in partition 0's range.
		for i := 0; i < 8; i++ {
			g := NewGenerator(int64(700+i), HotRange{N: keySpace, HotPct: 90, FracPct: 25}, Mix{AddPct: 60, RemovePct: 30, ContainsPct: 10})
			s.NewClient(g.Stream()).Start()
		}
		_, ops := sim.Measure(e, func() {}, s.Ops(), so.Warmup, 4*so.Measure)
		var sizes []int
		for _, part := range s.Partitions() {
			sizes = append(sizes, part.Len())
		}
		return ops, sizes
	}
	tNo, sizesNo := run(false)
	tYes, sizesYes := run(true)
	t := &Table{
		Title:   "§4.2.1 — rebalancing under a 90%-hot workload (4 partitions)",
		Columns: []string{"rebalancing", "sim ops/s", "partition sizes"},
	}
	t.AddRow("off", tNo, fmt.Sprint(sizesNo))
	t.AddRow("on", tYes, fmt.Sprint(sizesYes))
	return []*Table{t}
}

// MigBatchExp sweeps the migration batch size and reports how long a
// fixed migration takes in virtual time.
func MigBatchExp(o Options) []*Table {
	t := &Table{
		Title:   "Ablation — migration batch size (move 512 keys between 2 partitions)",
		Columns: []string{"keys per message", "migration time", "ops served during migration"},
	}
	for _, batch := range []int{1, 2, 4, 8} {
		e := sim.NewEngine(sim.ConfigFromParams(o.Params))
		s := pimskip.New(e, 2048, 2, 5)
		s.MigBatch = batch
		s.Preload(PreloadKeys(1024))
		g := NewGenerator(900, Uniform{N: 2048}, Balanced())
		cl := s.NewClient(g.Stream())
		cl.Start()
		e.RunUntil(10 * sim.Microsecond)
		start := e.Now()
		s.TriggerMigration(0, 0, 1024, 1)
		served := s.Ops()
		opsBefore := served()
		for e.Now() < 100*sim.Millisecond {
			e.RunFor(10 * sim.Microsecond)
			if p0 := s.Partitions()[0]; p0.Len() == 0 && p0.Migrations == 1 && !p0.Owns(0) {
				break
			}
		}
		t.AddRow(batch, (e.Now() - start).String(), served()-opsBefore)
	}
	return []*Table{t}
}

// R1SweepExp shows each PIM structure's advantage over its best CPU
// baseline as r1 varies.
func R1SweepExp(o Options) []*Table {
	t := &Table{
		Title:   "Ablation — r1 sweep (PIM structure vs strongest CPU baseline)",
		Columns: []string{"r1", "list: PIM/fine-grained", "skip: PIM(k=8)/lock-free(p=16)", "queue: PIM/FC"},
	}
	for _, r1 := range []float64{1, 2, 3, 4, 6, 8} {
		params := o.Params
		params.R1 = r1
		so := o.simOpts()
		so.Params = params

		list := SimList(so, model.PIMListCombining, 8, 400).Ops /
			SimList(so, model.FineGrainedLockList, 8, 400).Ops
		pim8, _ := SimSkipPIM(so, 8, 16, 1<<14)
		skip := pim8.Ops / SimSkipLockFree(so, 16, 1<<14, false).Ops
		queue := SimPIMQueue(so, dequeueSide(12)).Ops / (SimQueueFC(so, 24, false).Ops / 2)
		t.AddRow(fmt.Sprintf("%.0f", r1), list, skip, queue)
	}
	return []*Table{t}
}

// QueueFatNodesExp compares plain enqueues with §5.1 fat-node
// combining on a saturated enqueue core.
func QueueFatNodesExp(o Options) []*Table {
	so := o.simOpts()
	run := func(fat bool) (float64, float64) {
		e := sim.NewEngine(sim.ConfigFromParams(o.Params))
		q := pimqueue.New(e, 2, 1<<30)
		q.FatNodes = fat
		var cls []*pimqueue.Client
		for i := 0; i < 12; i++ {
			cls = append(cls, q.NewClient(pimqueue.Enqueuer))
		}
		_, ops := sim.Measure(e, sim.StartAll(cls), sim.OpsOfClients(cls), so.Warmup, so.Measure)
		qc := q.Cores()[0]
		return ops, float64(qc.Core().Vault().Writes) / float64(qc.Enqueues)
	}
	t := &Table{
		Title:   "Ablation — §5.1 fat-node enqueue combining (12 enqueuers, one core)",
		Columns: []string{"mode", "sim ops/s", "vault writes per enqueue"},
	}
	plainOps, plainW := run(false)
	fatOps, fatW := run(true)
	t.AddRow("plain nodes", plainOps, plainW)
	t.AddRow("fat nodes (8 values/line)", fatOps, fatW)
	return []*Table{t}
}

// QueueCPUSplitExp compares the core-side threshold policy with the
// footnote-4 CPU-decided policy at a matched split cadence.
func QueueCPUSplitExp(o Options) []*Table {
	so := o.simOpts()
	run := func(cpuSplit bool) (float64, uint64) {
		e := sim.NewEngine(sim.ConfigFromParams(o.Params))
		threshold := 256
		if cpuSplit {
			threshold = 1 << 30
		}
		q := pimqueue.New(e, 4, threshold)
		var cls []*pimqueue.Client
		for i := 0; i < 6; i++ {
			enq := q.NewClient(pimqueue.Enqueuer)
			if cpuSplit {
				enq.SplitEvery = 256 / 6
			}
			cls = append(cls, enq, q.NewClient(pimqueue.Dequeuer))
		}
		_, ops := sim.Measure(e, sim.StartAll(cls), sim.OpsOfClients(cls), so.Warmup, so.Measure)
		var handoffs uint64
		for _, qc := range q.Cores() {
			handoffs += qc.Handoffs
		}
		return ops, handoffs
	}
	t := &Table{
		Title:   "Ablation — segment creation policy (footnote 4)",
		Columns: []string{"policy", "sim ops/s", "handoffs"},
	}
	coreOps, coreHand := run(false)
	cpuOps, cpuHand := run(true)
	t.AddRow("core threshold (Algorithm 1)", coreOps, coreHand)
	t.AddRow("CPU-decided (MsgSplit)", cpuOps, cpuHand)
	return []*Table{t}
}

// MigRemoteExp times one fixed migration with the message protocol and
// with direct remote-vault access at several remote latencies.
func MigRemoteExp(o Options) []*Table {
	t := &Table{
		Title:   "Ablation — migration transport (move 512 keys, batch 4)",
		Columns: []string{"transport", "migration time"},
	}
	run := func(remote bool, lremote sim.Time) sim.Time {
		cfg := sim.ConfigFromParams(o.Params)
		cfg.LpimRemote = lremote
		e := sim.NewEngine(cfg)
		s := pimskip.New(e, 2048, 2, 5)
		s.MigBatch = 4
		s.RemoteMigration = remote
		s.Preload(PreloadKeys(1024))
		start := e.Now()
		s.TriggerMigration(0, 0, 1024, 1)
		e.Run()
		return e.Now() - start
	}
	t.AddRow("messages (MsgMigAdd)", run(false, 0).String())
	lpim := sim.ConfigFromParams(o.Params).Lpim
	for _, mult := range []sim.Time{2, 3, 6} {
		t.AddRow(fmt.Sprintf("remote access (%d×Lpim)", mult), run(true, mult*lpim).String())
	}
	return []*Table{t}
}

// HashExp measures the extension structure: the PIM-managed hash map
// against a lock-sharded CPU hash map, sweeping vault counts.
func HashExp(o Options) []*Table {
	so := o.simOpts()
	const keyN = 4096
	const p = 16
	kv := map[int64]int64{}
	for k := int64(0); k < keyN; k++ {
		kv[k] = k
	}
	genOp := func(rng *rand.Rand) pimhash.Op {
		k := rng.Int63n(keyN)
		switch rng.Intn(10) {
		case 0:
			return pimhash.Op{Kind: pimhash.MsgPut, Key: k, Val: 1}
		case 1:
			return pimhash.Op{Kind: pimhash.MsgDel, Key: k}
		default:
			return pimhash.Op{Kind: pimhash.MsgGet, Key: k}
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Extension — PIM hash map (p=%d clients, 80%% reads)", p),
		Columns: []string{"k (vaults/shards)", "PIM hash map", "sharded CPU map"},
		Note:    "the PIM map is message-latency-bound (ρ ≈ 2 probes), so it gains from pipelining exactly as §5.2 predicts",
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		e1 := sim.NewEngine(sim.ConfigFromParams(o.Params))
		m := pimhash.New(e1, k)
		m.Preload(kv)
		var clients []*sim.Client
		for i := 0; i < p; i++ {
			rng := rand.New(rand.NewSource(int64(900 + i)))
			clients = append(clients, m.NewClient(func(uint64) pimhash.Op { return genOp(rng) }))
		}
		meter := &sim.Meter{Engine: e1, Clients: clients}
		_, pimOps := meter.Run(so.Warmup, so.Measure)

		e2 := sim.NewEngine(sim.ConfigFromParams(o.Params))
		gens := make([]*rand.Rand, p)
		for i := range gens {
			gens[i] = rand.New(rand.NewSource(int64(950 + i)))
		}
		base := pimhash.NewSimShardedCPU(e2, p, k, func(cpu int, _ uint64) pimhash.Op {
			return genOp(gens[cpu])
		})
		base.Preload(kv)
		_, cpuOps := sim.Measure(e2, func() {}, base.Ops(), so.Warmup, so.Measure)

		t.AddRow(k, pimOps, cpuOps)
	}
	return []*Table{t}
}

// LatencyExp reports operation response times (p50/p95/p99) for the
// PIM structures — something the paper's throughput-only model cannot
// see — plus the profiler's critical-path attribution: what fraction
// of each request's latency was memory, message wire time, queueing,
// combiner-batch wait, or handler service. It exposes the combining
// list's latency/throughput tradeoff: the batching window adds one
// round trip of latency at low load, visible as the comb% column.
func LatencyExp(o Options) []*Table {
	so := o.simOpts()
	const keySpace = 400
	t := &Table{
		Title: "Extension — response-time percentiles and attribution (virtual time)",
		Columns: []string{"structure", "clients", "ops/s", "p50", "p95", "p99",
			"mem%", "msg%", "queue%", "comb%", "svc%"},
		Note: "attribution columns are profiler critical-path shares; the combining list trades one round trip of low-load latency (comb%) for batching throughput",
	}
	// row profiles one run on a fresh engine and renders its
	// percentiles and the profiler's global attribution shares in
	// column order; atomics never appear in PIM client request paths.
	row := func(structure, name string, p int, run func(e *sim.Engine) RunResult) {
		e := sim.NewEngine(sim.ConfigFromParams(o.Params))
		pr := prof.New(e, prof.Options{Structure: structure})
		e.Attach(pr)
		res := run(e)
		p50, p95, p99 := res.Percentiles()
		s := pr.Shares()
		pct := func(c string) string { return fmt.Sprintf("%.1f%%", 100*s[c]) }
		t.AddRow(name, p, res.Ops, p50, p95, p99,
			pct("memory"), pct("message"), pct("queueing"), pct("combiner_wait"), pct("service"))
	}

	for _, cfg := range []struct {
		name      string
		combining bool
		p         int
	}{
		{"PIM list naive", false, 1},
		{"PIM list combining", true, 1},
		{"PIM list naive", false, 16},
		{"PIM list combining", true, 16},
	} {
		row("pimlist", cfg.name, cfg.p, func(e *sim.Engine) RunResult {
			return so.pimList(e, cfg.combining, cfg.p, keySpace, 600)
		})
	}
	row("pimskip", "PIM skip-list k=8", 16, func(e *sim.Engine) RunResult {
		res, _ := so.pimSkip(e, 8, 16, 1<<14, 650)
		return res
	})
	row("pimqueue", "PIM queue (deq side)", 12, func(e *sim.Engine) RunResult {
		return so.pimQueue(e, dequeueSide(12))
	})
	return []*Table{t}
}

// StackExp applies the §5 comparison to the stack: the PIM stack in
// the simulator against the modeled Treiber and FC bounds.
func StackExp(o Options) []*Table {
	so := o.simOpts()

	// PIM stack, mixed pushers/poppers, saturated.
	run := func(pipelining bool) float64 {
		e := sim.NewEngine(sim.ConfigFromParams(o.Params))
		st := pimstack.New(e, 2, 1<<30)
		st.Pipelining = pipelining
		var cls []*pimstack.Client
		for i := 0; i < 6; i++ {
			cls = append(cls, st.NewClient(pimstack.Pusher), st.NewClient(pimstack.Popper))
		}
		_, ops := sim.Measure(e, sim.StartAll(cls), sim.OpsOfClients(cls), so.Warmup, so.Measure)
		return ops
	}

	sc := model.StackConfig{P: 12}
	t := &Table{
		Title:   "Extension — stacks (the §5 method applied to the other contended structure)",
		Columns: []string{"algorithm", "bound", "model ops/s", "sim ops/s"},
		Note:    "the stack has one hot end, so the PIM stack always runs single-segment; pipelined, it still beats both CPU bounds",
	}
	rows := model.StackTable(o.Params, sc)
	t.AddRow(rows[0].Algorithm, rows[0].Formula, rows[0].OpsPerSec, "—")
	t.AddRow(rows[1].Algorithm, rows[1].Formula, rows[1].OpsPerSec, "—")
	t.AddRow(rows[2].Algorithm, rows[2].Formula, rows[2].OpsPerSec, run(true))
	t.AddRow("PIM-managed stack (no pipelining)", "≈ 1 / (Lpim+Lmessage)", "—", run(false))
	return []*Table{t}
}

// StackHostExp measures the real host-side stacks for context.
func StackHostExp(o Options) []*Table {
	const prefill = 1 << 15
	t := &Table{
		Title:   "Extension — stack host baselines (mixed push/pop, prefilled)",
		Columns: []string{"threads", "Treiber", "FC stack", "FC stack + elimination"},
	}
	for _, p := range o.hostSweep() {
		tr := pairMix(o, p, prefill, shared(treiberstack.New()), (*treiberstack.Stack).Push, (*treiberstack.Stack).Pop)
		fcAt := func(eliminate bool) float64 {
			return pairMix(o, p, prefill, fcstack.New(eliminate).NewHandle, (*fcstack.Handle).Push, (*fcstack.Handle).Pop)
		}
		t.AddRow(p, tr, fcAt(false), fcAt(true))
	}
	return []*Table{t}
}

// ListSizesExp sweeps the list size n: the PIM-combining advantage
// over fine-grained locks is size-independent (both scale as 1/n), as
// the Table 1 algebra predicts — the ratio is r1·(n+1)/(2(n−Sp)) ≈ 1.5.
func ListSizesExp(o Options) []*Table {
	so := o.simOpts()
	t := &Table{
		Title:   "§4.1 — list-size sweep (p = 8)",
		Columns: []string{"n (nodes)", "fine-grained locks", "PIM+combining", "ratio", "model ratio"},
	}
	for _, keySpace := range []int64{100, 400, 1600, 6400} {
		n := int(keySpace / 2)
		fgl := SimList(so, model.FineGrainedLockList, 8, keySpace).Ops
		pim := SimList(so, model.PIMListCombining, 8, keySpace).Ops
		lc := model.ListConfig{N: n, P: 8}
		modelRatio := model.ListPIMCombining(o.Params, lc) / model.ListFineGrainedLocks(o.Params, lc)
		t.AddRow(n, fgl, pim, pim/fgl, modelRatio)
	}
	return []*Table{t}
}

// SkipCombiningExp quantifies the §4.2 claim that the combining
// optimization "cannot be applied to skip-lists effectively": it
// measures the traversal steps saved by batching p requests into one
// pass for a linked-list versus a skip-list of equal size (the
// skip-list batch uses a finger search — the strongest sequential
// combining one can do). Lists share almost the whole traversal;
// skip-list paths share only a short prefix.
func SkipCombiningExp(o Options) []*Table {
	const size = 1 << 13
	t := &Table{
		Title:   "§4.2 — traversal steps saved by combining a batch (structure size 8192)",
		Columns: []string{"batch size", "list serial", "list batched", "list saving", "skip serial", "skip batched", "skip saving"},
		Note:    "the list's saving approaches (p-1)/p; the skip-list's stays small — why §4.2 partitions instead",
	}
	for _, p := range []int{2, 4, 8, 16, 32} {
		rng := rand.New(rand.NewSource(int64(p)))
		listOps := make([]op.Op, p)
		skipOps := make([]op.Op, p)
		for i := 0; i < p; i++ {
			k := rng.Int63n(size)
			listOps[i] = op.Op{Kind: op.Contains, Key: k}
			skipOps[i] = op.Op{Kind: op.Contains, Key: k}
		}

		buildList := func() *seqlist.List {
			l := seqlist.New()
			for k := int64(0); k < size; k++ {
				l.AddKey(k)
			}
			return l
		}
		ls := buildList()
		ls.ResetSteps()
		for _, op := range listOps {
			ls.Apply(op)
		}
		lb := buildList()
		lb.ResetSteps()
		lb.ApplyBatch(listOps)

		buildSkip := func() *seqskip.List {
			l := seqskip.New(5)
			for k := int64(0); k < size; k++ {
				l.AddKey(k)
			}
			return l
		}
		ss := buildSkip()
		ss.ResetSteps()
		for _, op := range skipOps {
			ss.Apply(op)
		}
		sb := buildSkip()
		sb.ResetSteps()
		sb.ApplyBatch(skipOps)

		pct := func(serial, batched uint64) string {
			return fmt.Sprintf("%.0f%%", (1-float64(batched)/float64(serial))*100)
		}
		t.AddRow(p, ls.Steps(), lb.Steps(), pct(ls.Steps(), lb.Steps()),
			ss.Steps(), sb.Steps(), pct(ss.Steps(), sb.Steps()))
	}
	return []*Table{t}
}

// QueueSlowCPUExp injects one slow client (delayed acknowledgements)
// and measures both notification schemes under frequent handoffs — the
// paper's stated reason the non-blocking scheme exists.
func QueueSlowCPUExp(o Options) []*Table {
	so := o.simOpts()
	run := func(blocking bool, ackDelay sim.Time) float64 {
		e := sim.NewEngine(sim.ConfigFromParams(o.Params))
		q := pimqueue.New(e, 4, 64) // frequent handoffs
		q.BlockingNotify = blocking
		var enqs, deqs []*pimqueue.Client
		for i := 0; i < 6; i++ {
			enqs = append(enqs, q.NewClient(pimqueue.Enqueuer))
			deqs = append(deqs, q.NewClient(pimqueue.Dequeuer))
		}
		enqs[0].AckDelay = ackDelay // one slow CPU
		// Stagger consumers so a backlog builds and segments hand off
		// continuously during the measurement.
		start := func() {
			sim.StartAll(enqs)()
			e.After(100*sim.Microsecond, sim.StartAll(deqs))
		}
		_, ops := sim.Measure(e, start, sim.OpsOfClients(append(enqs, deqs...)), so.Warmup, so.Measure)
		return ops
	}
	t := &Table{
		Title:   "Failure injection — one slow CPU (delayed acks), threshold 64, 6+6 clients",
		Columns: []string{"scheme", "no slow CPU", "slow CPU (10µs acks)"},
		Note:    "the blocking scheme stalls every handoff on the slow CPU; the non-blocking scheme is unaffected (§5.1)",
	}
	t.AddRow("non-blocking", run(false, 0), run(false, 10*sim.Microsecond))
	t.AddRow("blocking", run(true, 0), run(true, 10*sim.Microsecond))
	return []*Table{t}
}

// QueueScalingExp sweeps client count per side: the PIM queue and both
// baselines approach their §5.2 saturation bounds from below.
func QueueScalingExp(o Options) []*Table {
	so := o.simOpts()
	t := &Table{
		Title:   "§5.2 — queue throughput vs clients per side",
		Columns: []string{"clients/side", "PIM queue (deq side)", "FC bound/side", "F&A bound/side"},
		Note:    "saturation: PIM → 1/Lpim, FC → 1/(2·Lllc), F&A → 1/Latomic",
	}
	faa := SimQueueFAA(so, 1, false).Ops // one line: serialized at Latomic for any p
	for _, p := range []int{1, 2, 4, 8, 16, 24} {
		pim := SimPIMQueue(so, dequeueSide(p)).Ops
		fc := SimQueueFC(so, 2*p, false).Ops / 2
		t.AddRow(p, pim, fc, faa)
	}
	return []*Table{t}
}

// BandwidthExp sweeps the per-sender message-injection gap to test the
// paper's §5.2 claim that reply bandwidth does not bottleneck the
// pipelined PIM queue: throughput should hold at 1/Lpim until the gap
// exceeds Lpim, then track 1/gap.
func BandwidthExp(o Options) []*Table {
	so := o.simOpts()
	lpim := sim.ConfigFromParams(o.Params).Lpim
	t := &Table{
		Title:   "Ablation — reply-link injection bandwidth (PIM queue, dequeue side, 12 clients)",
		Columns: []string{"injection gap", "sim ops/s", "regime"},
		Note:    "flat until gap > Lpim: the paper's bandwidth claim, quantified",
	}
	for _, mult := range []float64{0, 0.5, 1, 2, 4} {
		gap := sim.Time(float64(lpim) * mult)
		cfg := sim.ConfigFromParams(o.Params)
		cfg.MessageGap = gap
		ops := so.pimQueue(sim.NewEngine(cfg), dequeueSide(12)).Ops
		regime := "service-bound (≈1/Lpim)"
		if gap > lpim {
			regime = "bandwidth-bound (≈1/gap)"
		}
		t.AddRow(fmt.Sprintf("%.1f×Lpim", mult), ops, regime)
	}
	return []*Table{t}
}

func ratioNear(a, b, tol float64) bool {
	if b == 0 {
		return false
	}
	r := a / b
	return r >= 1-tol && r <= 1+tol
}
