package pimskip

import (
	"fmt"

	"pimds/internal/obs"
	"pimds/internal/sim"
)

// KindNames names the skip-list protocol's message kinds, in
// declaration order, for metric paths and trace events (install
// with sim.Engine.SetKindNamer(KindNames.Name)).
var KindNames = sim.KindNames{
	"Contains", "Add", "Remove", "Resp", "Reject", "MigCmd",
	"MigStep", "MigStart", "MigAdd", "MigOwn", "DirUpdate", "DirAck",
	"MigEnd", "SizeReq", "SizeResp",
}

// instrument registers a snapshot-time collector exporting partition
// sizes and imbalance (max/mean size — the quantity the §4.2.1
// rebalancing schemes try to keep near 1), the migration protocol's
// per-partition counters, and the clients' retry/directory traffic. A
// nil registry makes this a no-op.
func (s *SkipList) instrument() {
	reg := s.eng.Metrics()
	reg.AddCollector(func(r *obs.Registry) {
		total, max := 0, 0
		var moved uint64
		for i, p := range s.parts {
			n := p.seq.Len()
			total += n
			if n > max {
				max = n
			}
			pre := fmt.Sprintf("pimskip/part/%03d/", i)
			r.Gauge(pre + "size").Set(int64(n))
			r.Gauge(pre + "forwarded").Set(int64(p.Forwarded))
			r.Gauge(pre + "rejected").Set(int64(p.Rejected))
			r.Gauge(pre + "migrations").Set(int64(p.Migrations))
			r.Gauge(pre + "cmds_dropped").Set(int64(p.CmdsDropped))
			if p.mig != nil {
				moved += p.mig.NodesMoved
			}
		}
		imbalance := 0.0
		if total > 0 {
			imbalance = float64(max) * float64(len(s.parts)) / float64(total)
		}
		r.FloatGauge("pimskip/imbalance").Set(imbalance)
		r.Gauge("pimskip/total_len").Set(int64(total))
		r.Gauge("pimskip/nodes_in_flight").Set(int64(moved))

		var retries, dirUpdates uint64
		for _, cl := range s.clients {
			retries += cl.Rejections
			dirUpdates += cl.DirUpdates
		}
		r.Gauge("pimskip/client_retries").Set(int64(retries))
		r.Gauge("pimskip/dir_updates").Set(int64(dirUpdates))
	})
}
