package server

// This file is the durability side of the server: the WAL commit
// pipeline, periodic snapshots, and recovery. The design extends the
// paper's flat-combining argument to storage — the combiner already
// applies whole batches, so one log record and (in the default policy)
// one fsync cover every op the batch acknowledged: group commit falls
// out of the combining structure instead of needing its own batching
// timer.
//
// Ordering is the subtle part. Acks are released by a single WAL
// writer goroutine in combiner order, and *every* pass — including
// read-only ones that produce no record — rides the same FIFO. A read
// that observed a write therefore cannot be acknowledged before that
// write is durable; without this, a crash between the read's ack and
// the write's fsync would recover a state the already-acknowledged
// read contradicts, and the replayed history would not linearize.

import (
	"fmt"
	"time"

	"pimds/internal/obs"
	"pimds/internal/op"
	"pimds/internal/wal"
	"pimds/internal/wire"
)

// Fsync policies accepted by Config.Fsync.
const (
	// FsyncBatch (the default) forces once per writer pass: the writer
	// greedily gathers every pass the combiners have produced, appends
	// their records, and fsyncs the group together — group commit on top
	// of group commit.
	FsyncBatch = "batch"
	// FsyncOff flushes records to the kernel but never fsyncs; a process
	// crash loses nothing, a machine crash can lose the tail.
	FsyncOff = "off"
)

// walPassesPerShard is a durable shard's pass depth: one being filled
// by the combiner while one drains through the writer.
const walPassesPerShard = 2

// walState is the server's durability pipeline.
type walState struct {
	dir string
	off bool // never fsync

	log     *wal.Log   // writer goroutine only (after recovery)
	commits chan *pass // combiners → writer, FIFO across shards
	ackq    []*pass    // writer-local: appended but not yet synced+acked
	pending int        // writer-local: records appended but not yet synced

	started    bool // writer goroutine launched (guarded by Server.mu)
	writerDone chan struct{}
	snapStop   chan struct{}
	snapDone   chan struct{}

	records  *obs.Counter
	bytes    *obs.Counter
	fsyncs   *obs.Counter
	snaps    *obs.Counter
	replayed *obs.Counter
	restored *obs.Counter
	lag      *obs.Histogram
	group    *obs.Histogram
}

// newWALState validates the durability config and builds the pipeline
// skeleton; the log itself is opened during recovery.
func newWALState(cfg Config) (*walState, error) {
	w := &walState{
		dir:     cfg.WALDir,
		commits: make(chan *pass, walPassesPerShard*cfg.Shards+4),

		records:  cfg.Reg.Counter("server/wal/records"),
		bytes:    cfg.Reg.Counter("server/wal/bytes"),
		fsyncs:   cfg.Reg.Counter("server/wal/fsyncs"),
		snaps:    cfg.Reg.Counter("server/wal/snapshots"),
		replayed: cfg.Reg.Counter("server/wal/replayed_ops"),
		restored: cfg.Reg.Counter("server/wal/restored_keys"),
		lag:      cfg.Reg.Histogram("server/wal/lag_ns"),
		group:    cfg.Reg.Histogram("server/wal/group"),
	}
	switch cfg.Fsync {
	case FsyncBatch:
	case FsyncOff:
		w.off = true
	default:
		return nil, fmt.Errorf("server: unknown fsync policy %q (want %s|%s)",
			cfg.Fsync, FsyncBatch, FsyncOff)
	}
	return w, nil
}

// stageRecord fills the pass's WAL record inside the combining window:
// header, then every mutating op in pass order, then the CRC seal. A
// read-only pass seals to an empty record — nothing to log, but the
// pass still rides the writer's FIFO so its acks stay ordered after
// earlier durable writes. Part of the pinned window: stages bytes only,
// never touches a file.
//
//pimvet:nopark
func (ps *pass) stageRecord() {
	sh := ps.sh
	ps.rec = wal.BeginRecord(ps.rec[:0], uint16(sh.idx), sh.walSeq+1)
	n := 0
	for i := range ps.ops {
		if ps.ops[i].Kind.Mutating() {
			ps.rec = wire.AppendOp(ps.rec, ps.ops[i])
			n++
		}
	}
	ps.rec = wal.FinishRecord(ps.rec, n)
	if n > 0 {
		sh.walSeq++
	}
}

// walWriter is the dedicated writer goroutine: it admits passes for as
// long as more are queued (mirroring the combiners' own greedy gather),
// appending their records through one buffered file, then makes the
// group durable according to the fsync policy, and only then releases
// each pass's acks, which recycles the pass to its shard's free list.
// The group's sync overwrites the segment's zero-filled tail in place;
// topping that tail up (wal.Log.Extend) waits until the acks are out,
// so no ack waits on a zero-fill.
func (s *Server) walWriter() {
	w := s.wal
	defer close(w.writerDone)
	for ps := range w.commits {
		s.walAdmit(ps)
		if len(w.commits) == 0 {
			s.walRelease()
			if err := w.log.Extend(); err != nil {
				panic(fmt.Sprintf("server: wal extend: %v", err))
			}
		}
	}
}

// walAdmit appends one pass's record (if any), counting it in
// w.pending, and queues its acks; control items first retire
// everything pending — including a real sync for any unsynced records
// appended earlier in this gather pass — then run.
func (s *Server) walAdmit(ps *pass) {
	w := s.wal
	if ps.fn != nil {
		s.walRelease()
		ps.fn()
		return
	}
	if len(ps.rec) > 0 {
		if err := w.log.Append(ps.rec); err != nil {
			// Durability is the contract; a log the server cannot append
			// to (or grow, when a group outruns the zero tail) means
			// every future ack would be a lie. Fail stop.
			panic(fmt.Sprintf("server: wal append: %v", err))
		}
		w.records.Inc()
		w.bytes.Add(uint64(len(ps.rec)))
		w.pending++
	}
	w.ackq = append(w.ackq, ps)
}

// walRelease makes every unsynced record durable and releases every
// queued ack. pending == 0 (only read-only passes queued) skips the
// sync: nothing new was appended, and everything those reads observed
// was covered by an earlier sync in the FIFO.
func (s *Server) walRelease() {
	w := s.wal
	if w.pending > 0 {
		if err := w.log.Sync(); err != nil {
			panic(fmt.Sprintf("server: wal sync: %v", err))
		}
		if !w.off {
			w.fsyncs.Inc()
		}
		w.group.Observe(int64(w.pending))
		w.pending = 0
	}
	if len(w.ackq) == 0 {
		return
	}
	tAck := s.now()
	for _, ps := range w.ackq {
		w.lag.Observe(tAck - ps.end) // before release: the combiner owns ps again after it
		s.release(ps, tAck)
	}
	w.ackq = w.ackq[:0]
}

// recoverWAL rebuilds state from the newest valid snapshot plus the
// log tail, opens the log for appending, and starts the writer (and
// the snapshot scheduler, when configured). Serve calls it before
// accepting connections; /healthz reports "recovering" (503, not
// ready) from New until it completes.
func (s *Server) recoverWAL() error {
	if s.wal == nil {
		return nil
	}
	var err error
	s.walOnce.Do(func() { err = s.doRecover() })
	return err
}

// doRecover keeps the server's half of recovery — the layout check,
// the backends, the counters — and leaves the directory's rules
// (snapshot boundary, covered records, seq gaps, torn tails) to
// wal.Recover.
func (s *Server) doRecover() error {
	w := s.wal
	var out []op.Result
	var arena []int64
	next, seqs, err := wal.Recover(w.dir, len(s.shards), func(i int, state []int64) error {
		// Set dumps are keys, each owned by one shard; queue and stack
		// dumps are values.
		if s.caps.Keyed(op.Add) {
			for _, key := range state {
				if err := s.checkLayout(i, op.Op{Kind: op.Add, Key: key}); err != nil {
					return err
				}
			}
		}
		s.shards[i].be.RestoreState(state)
		w.restored.Add(uint64(len(state)))
		return nil
	}, func(rec wal.Record) error {
		for _, o := range rec.Ops {
			if err := s.checkLayout(int(rec.Shard), o); err != nil {
				return err
			}
		}
		if cap(out) < len(rec.Ops) {
			out = make([]op.Result, len(rec.Ops))
		}
		arena = s.shards[rec.Shard].be.ApplyBatch(rec.Ops, out[:len(rec.Ops)], arena[:0])
		w.replayed.Add(uint64(len(rec.Ops)))
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: recovering %s: %w", w.dir, err)
	}
	for i, seq := range seqs {
		s.shards[i].walSeq = seq
	}

	log, err := wal.Open(w.dir, next, !w.off)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		// Shutdown won the race; the pipeline must not start.
		log.Close()
		return nil
	}
	w.log = log
	w.started = true
	w.writerDone = make(chan struct{})
	go s.walWriter()
	if s.cfg.SnapshotEvery > 0 {
		w.snapStop = make(chan struct{})
		w.snapDone = make(chan struct{})
		go s.snapLoop(s.cfg.SnapshotEvery)
	}
	s.recovering.Store(false)
	return nil
}

// checkLayout reports a recovered op that the configured structure and
// range partition would not have routed to shard: the data was written
// under another structure, shard count or key space. Recovery refuses
// such data rather than re-partitioning it, because serving it would
// leave keys in shards that lookups never reach.
func (s *Server) checkLayout(shard int, o op.Op) error {
	n, st := len(s.shards), s.check(o)
	switch {
	case st == op.StatusBadKind:
		return fmt.Errorf("shard %d holds a %s op, which a %d-shard %s server does not serve",
			shard, o.Kind, n, s.cfg.Structure)
	case st == op.StatusBadKey:
		return fmt.Errorf("shard %d holds key %d, outside key space %d", shard, o.Key, s.cfg.KeySpace)
	case s.caps.Keyed(o.Kind) && s.shardFor(o.Key).idx != shard:
		return fmt.Errorf("shard %d holds key %d, which %d shards over key space %d place in shard %d",
			shard, o.Key, n, s.cfg.KeySpace, s.shardFor(o.Key).idx)
	}
	return nil
}

// snapLoop takes a snapshot every interval. It stops before the
// combiners do (Shutdown order), so its hand-offs to them and to the
// writer always have a live peer.
func (s *Server) snapLoop(interval time.Duration) {
	w := s.wal
	defer close(w.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.snapStop:
			return
		case <-t.C:
			// A failed snapshot costs replay time, not correctness: the
			// log is still intact and still authoritative, and the next
			// tick tries again.
			s.checkpoint(s.roll())
		}
	}
}

// roll starts a snapshot: it rolls the log to a fresh segment on the
// writer, in commit order, and returns it. It runs *before* the dumps
// are taken — so every record in a closed segment is covered by the
// snapshot, which is what lets wal.Checkpoint prune them. Records
// racing into the new boundary segment while the dumps are taken may
// or may not be covered; wal.Recover resolves them per record by seq.
func (s *Server) roll() uint64 {
	w := s.wal
	rolled := make(chan uint64, 1)
	w.commits <- &pass{fn: func() {
		// Roll cuts the closed segment's zero tail off and pre-extends
		// the new one; either failing is a sync failure. Fail stop.
		if err := w.log.Roll(); err != nil {
			panic(fmt.Sprintf("server: wal roll: %v", err))
		}
		rolled <- w.log.Seg()
	}}
	return <-rolled
}

// checkpoint captures every shard's state in its own combiner (so each
// dump is a consistent point in that shard's serial order) and
// checkpoints it with boundary segment seg.
func (s *Server) checkpoint(seg uint64) error {
	w := s.wal
	snap := &wal.Snapshot{Shards: make([]wal.Shard, len(s.shards))}
	for i, sh := range s.shards {
		done := make(chan struct{})
		sh.ctl <- func() {
			snap.Shards[i] = wal.Shard{Seq: sh.walSeq, State: sh.be.AppendState(nil)}
			close(done)
		}
		<-done
	}
	if err := wal.Checkpoint(w.dir, seg, snap); err != nil {
		return err
	}
	w.snaps.Inc()
	return nil
}

// finalSnapshot runs at quiescence, after the combiners and the WAL
// writer have exited: it captures the drained state directly, making
// the next start's recovery a pure snapshot restore with an empty log
// tail. Errors are swallowed — a missed final snapshot just means the
// next start replays the log instead.
func (s *Server) finalSnapshot() {
	w := s.wal
	defer w.log.Close()
	if w.log.Roll() != nil {
		return
	}
	snap := &wal.Snapshot{Shards: make([]wal.Shard, len(s.shards))}
	for i, sh := range s.shards {
		snap.Shards[i] = wal.Shard{Seq: sh.walSeq, State: sh.be.AppendState(nil)}
	}
	if wal.Checkpoint(w.dir, w.log.Seg(), snap) == nil {
		w.snaps.Inc()
	}
}
