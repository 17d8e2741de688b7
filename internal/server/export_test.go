package server

// CloseGrace is how long a closing connection waits for its peer's FIN.
const CloseGrace = closeGrace

// RotateOnce forces one window rotation and health re-evaluation, so
// tests can close window intervals deterministically instead of
// waiting out the ticker.
func (s *Server) RotateOnce() { s.rotateOnce() }

// RecoverForTest runs WAL recovery (snapshot restore + log replay +
// pipeline start) without a listener, so tests can rebuild state and
// inspect it directly.
func (s *Server) RecoverForTest() error { return s.recoverWAL() }

// Checkpoint takes a snapshot as the scheduler does, calling between
// after the roll and before the dumps: records between causes land in
// the snapshot's boundary segment and are covered by it, as records
// racing a scheduled snapshot may be.
func (s *Server) Checkpoint(between func()) error {
	seg := s.roll()
	between()
	return s.checkpoint(seg)
}

// StateDumps returns every shard's canonical state dump. Only
// meaningful at quiescence (after Shutdown, or after RecoverForTest
// with no traffic).
func (s *Server) StateDumps() [][]int64 {
	dumps := make([][]int64, len(s.shards))
	for i, sh := range s.shards {
		dumps[i] = sh.be.AppendState(nil)
	}
	return dumps
}

// WALSeqs returns every shard's WAL sequence number, for tests
// asserting on snapshot/replay bookkeeping. Quiescence only.
func (s *Server) WALSeqs() []uint64 {
	seqs := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		seqs[i] = sh.walSeq
	}
	return seqs
}

// FrameRecords is the most frame records any live connection has made:
// the peak number of its decoded frames not yet answered, since a
// record is made only when none is free. It reads the free lists, so
// it is exact once every frame is answered (the writer recycles a
// record before writing its response) and the reader is back in Read.
func (s *Server) FrameRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for c := range s.conns {
		n = max(n, len(c.free))
	}
	return n
}

// TrackedConns is the size of the live-connection set Shutdown walks.
func (s *Server) TrackedConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
