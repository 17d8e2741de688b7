package server_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"pimds/internal/op"
	"pimds/internal/server"
	"pimds/internal/wire"
)

// The server is a function of its frame stream. With one connection
// and one frame outstanding at a time there is no concurrency, so how
// the server is built must not change what it answers. These tests
// check four such relations over seeded frame streams, per structure:
//
//	R1, shard count: 1, 2 and 4 shards give identical point results
//	    and identical completed-scan key sets, and a sharded server
//	    answers every serial-only kind with StatusBadKind.
//	R2, mode: in-memory and durable servers give identical answers
//	    and end in identical states.
//	R3, restart: a durable run stopped at a seeded frame, as a crash
//	    leaves its directory, with a checkpoint taken at an earlier
//	    seeded frame, then recovered on that directory and resumed,
//	    answers exactly as the unbroken run and ends in its state.
//	R4, frame splits: a frame cut into smaller frames gives identical
//	    per-op results, including frames whose response is larger
//	    than wire.MaxPayload and so leaves the server split.
//
// Equality with the one-frame answers needs frames whose ops commute
// under every serialization the structures may choose (the list sorts
// a batch by key, pops first; the others keep batch order), so the
// generator never mixes a read of a range with a write into it: a frame
// is a write frame (point ops), a read frame (scans, contains,
// neighbor queries) or a pop frame. Every frame also carries ops the
// structure's row rejects, which must come back with their status.

const streamKeySpace = 2048

// stream is a sequence of request frames: frames[i] is
// ops[cuts[i]:cuts[i+1]]. Op IDs are the ops' indexes in ops.
type stream struct {
	ops  []op.Op
	cuts []int
}

// frame appends one frame of ops to the stream.
func (s *stream) frame(ops ...op.Op) {
	if len(s.cuts) == 0 {
		s.cuts = append(s.cuts, 0)
	}
	for _, o := range ops {
		o.ID = uint64(len(s.ops))
		s.ops = append(s.ops, o)
	}
	s.cuts = append(s.cuts, len(s.ops))
}

// split returns the same ops with every frame cut at up to three
// seeded points, so each piece travels as a frame of its own.
func (s stream) split(rng *rand.Rand) stream {
	out := stream{ops: s.ops, cuts: []int{0}}
	for i := 1; i < len(s.cuts); i++ {
		lo, hi := s.cuts[i-1], s.cuts[i]
		var at []int
		for n := rng.Intn(4); n > 0 && hi-lo > 1; n-- {
			at = append(at, lo+1+rng.Intn(hi-lo-1))
		}
		slices.Sort(at)
		for _, c := range slices.Compact(at) {
			out.cuts = append(out.cuts, c)
		}
		out.cuts = append(out.cuts, hi)
	}
	return out
}

// genStream builds a seeded stream over caps' row. serial admits the
// serial-only kinds the row supports (Pred/Succ/PopMin/PopMax), which
// only a one-shard server answers.
func genStream(seed int64, caps server.Capability, serial bool) stream {
	rng := rand.New(rand.NewSource(seed))
	key := func() int64 { return rng.Int63n(streamKeySpace) }
	allowed := func(k op.Kind) bool { return caps.Supports(k) && (serial || !caps.SerialOnly(k)) }
	// rejected draws an op the row answers with a status: an
	// unsupported or undefined kind, or a keyed kind off the key space.
	rejected := func() op.Op {
		switch k := op.Kind(rng.Intn(op.NumKinds + 1)); {
		case !caps.Supports(k):
			return op.Op{Kind: k, Key: key()}
		case caps.Keyed(k) && allowed(k):
			return op.Op{Kind: k, Key: []int64{-1, streamKeySpace, -streamKeySpace}[rng.Intn(3)]}
		}
		return op.Op{Kind: op.Kind(200 + rng.Intn(50)), Key: key()}
	}
	// scan draws [lo, hi) and a limit that straddle shard boundaries:
	// limit 0 asks for the server's maximum, and anything above it is
	// clamped to it.
	scan := func() op.Op {
		lo := rng.Int63n(streamKeySpace+64) - 32
		hi := lo + rng.Int63n(streamKeySpace/2)
		limit := []uint16{0, 1, 3, 17, 64, wire.MaxScanLimit, wire.MaxScanLimit + 100}[rng.Intn(7)]
		return op.Op{Kind: op.RangeScan, Key: max(lo, 0), Hi: hi, Limit: limit}
	}
	var s stream
	// Fill to about 70 %, so wide scans fill their pages.
	for lo := int64(0); lo < streamKeySpace; lo += 128 {
		var ops []op.Op
		for k := lo; k < lo+128; k++ {
			if rng.Intn(10) < 7 {
				ops = append(ops, op.Op{Kind: op.Add, Key: k})
			}
		}
		s.frame(ops...)
	}
	for f := 0; f < 120; f++ {
		var ops []op.Op
		switch r := rng.Intn(10); {
		case r < 5: // write frame
			for n := 1 + rng.Intn(48); n > 0; n-- {
				ops = append(ops, op.Op{Kind: []op.Kind{op.Contains, op.Add, op.Remove}[rng.Intn(3)], Key: key()})
			}
		case r < 9: // read frame
			for n := 1 + rng.Intn(16); n > 0; n-- {
				switch k := []op.Kind{op.RangeScan, op.RangeScan, op.Contains, op.Pred, op.Succ}[rng.Intn(5)]; {
				case k == op.RangeScan && allowed(k):
					ops = append(ops, scan())
				case allowed(k):
					ops = append(ops, op.Op{Kind: k, Key: key()})
				}
			}
		default: // pop frame
			for n := 1 + rng.Intn(4); n > 0; n-- {
				if k := []op.Kind{op.PopMin, op.PopMax}[rng.Intn(2)]; allowed(k) {
					ops = append(ops, op.Op{Kind: k})
				}
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			ops = slices.Insert(ops, rng.Intn(len(ops)+1), rejected())
		}
		s.frame(ops...)
		if f == 60 && caps.Supports(op.RangeScan) {
			// One frame of wide scans: 320 full pages of 4 KiB are more
			// than MaxPayload, so a one-shard response is split.
			var wide []op.Op
			for n := 0; n < 320; n++ {
				wide = append(wide, op.Op{Kind: op.RangeScan, Key: rng.Int63n(streamKeySpace / 4), Hi: streamKeySpace})
			}
			s.frame(wide...)
		}
	}
	return s
}

// frames is the number of frames in s.
func (s stream) frames() int { return max(len(s.cuts)-1, 0) }

// answers is what one run of a stream returned: res[i] answers ops[i]
// (a scan's first page), keys[i] holds every key of scan i followed
// through its cursor to completion, and dumps is every shard's state
// at the end.
type answers struct {
	res   []op.Result
	keys  [][]int64
	dumps [][]int64
}

func newAnswers(s stream) answers {
	return answers{res: make([]op.Result, len(s.ops)), keys: make([][]int64, len(s.ops))}
}

// streamConfig is an in-memory server for streams; R2 and R3 add a
// WAL directory to it.
func streamConfig(structure string, shards int) server.Config {
	return server.Config{Structure: structure, Shards: shards, KeySpace: streamKeySpace}
}

// runStream serves s on a fresh server built from cfg and returns its
// answers and, after a drain, its state.
func runStream(t *testing.T, cfg server.Config, s stream) answers {
	t.Helper()
	srv, addr := startServer(t, cfg)
	c := dial(t, addr)
	a := newAnswers(s)
	a.play(t, cfg, c, s, 0, s.frames())
	a.dumps = stop(srv, c)
	return a
}

// stop closes c, drains srv and returns its state.
func stop(srv *server.Server, c *client) [][]int64 {
	c.nc.Close()
	srv.Shutdown()
	return srv.StateDumps()
}

// play serves frames [from, to) of s through c, one frame outstanding
// at a time, and follows every scan to completion before the next
// frame. It fails the test on a rejected op answered without its
// status, on a scan page that breaks the scan contract, and on a
// response that never arrives.
func (a *answers) play(t *testing.T, cfg server.Config, c *client, s stream, from, to int) {
	t.Helper()
	caps, _ := server.LookupCapability(cfg.Structure)
	shards := cfg.Shards
	exchange := func(ops []op.Op) map[uint64]op.Result {
		t.Helper()
		c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		c.send(t, ops...)
		return c.recv(t, len(ops))
	}
	// page is a scan with pages left: ops[i], resuming at cursor.
	type page struct {
		i      int
		cursor int64
	}
	for f := from; f < to; f++ {
		frame := s.ops[s.cuts[f]:s.cuts[f+1]]
		got := exchange(frame)
		var open []page
		for _, o := range frame {
			r := got[o.ID]
			a.res[o.ID] = r
			if want := wantStatus(caps, o); r.Status != want {
				t.Fatalf("%d shards: op %+v answered %+v, want status %v", shards, o, r, want)
			}
			if o.Kind == op.RangeScan && r.Status == op.StatusOK {
				a.keys[o.ID] = checkPage(t, o, o.Key, r, nil)
				if r.Value < scanEnd(o) {
					open = append(open, page{int(o.ID), r.Value})
				}
			}
		}
		// Follow the open scans, one page each per frame; read frames
		// mutate nothing, so every page reads the state the first did.
		for len(open) > 0 {
			next := make([]op.Op, len(open))
			for j, p := range open {
				o := s.ops[p.i]
				next[j] = op.Op{ID: uint64(j), Kind: op.RangeScan, Key: p.cursor, Hi: o.Hi, Limit: o.Limit}
			}
			got := exchange(next)
			still := open[:0]
			for j, p := range open {
				o, r := s.ops[p.i], got[uint64(j)]
				if r.Status != op.StatusOK {
					t.Fatalf("%d shards: scan %+v: page at %d answered %v", shards, o, p.cursor, r.Status)
				}
				a.keys[p.i] = checkPage(t, o, p.cursor, r, a.keys[p.i])
				if r.Value < scanEnd(o) {
					still = append(still, page{p.i, r.Value})
				}
			}
			open = still
		}
	}
}

// scanEnd is where scan o completes: its Hi, or the end of the key
// space, past which no page can resume.
func scanEnd(o op.Op) int64 { return min(o.Hi, streamKeySpace) }

// wantStatus is the status the row answers o with on any shard count,
// serial-only kinds aside (R1 checks those on their own).
func wantStatus(caps server.Capability, o op.Op) op.Status {
	switch {
	case !caps.Supports(o.Kind):
		return op.StatusBadKind
	case caps.Keyed(o.Kind) && (o.Key < 0 || o.Key >= streamKeySpace):
		return op.StatusBadKey
	}
	return op.StatusOK
}

// checkPage checks one page of scan o that started at from: keys
// ascend from from, stay below the cursor and o.Hi, respect the
// clamped limit, and the cursor advances. It returns keys with the
// page appended.
func checkPage(t *testing.T, o op.Op, from int64, r op.Result, keys []int64) []int64 {
	t.Helper()
	limit := int(o.Limit)
	if limit == 0 || limit > wire.MaxScanLimit {
		limit = wire.MaxScanLimit
	}
	prev := from - 1
	for _, k := range r.Values {
		if k <= prev || k >= r.Value || k >= o.Hi {
			t.Fatalf("scan %+v: page at %d returned %v with cursor %d", o, from, r.Values, r.Value)
		}
		prev = k
	}
	if !r.OK || len(r.Values) > limit || r.Value < scanEnd(o) && r.Value <= from {
		t.Fatalf("scan %+v: page at %d: %d keys (limit %d), ok %v, cursor %d does not advance",
			o, from, len(r.Values), limit, r.OK, r.Value)
	}
	return append(keys, r.Values...)
}

// TestFrameStreamRelations checks R1 to R4 for the list, skip and hash
// structures on seeded streams, R2 and R3 on the first seed only;
// -short runs one seed.
func TestFrameStreamRelations(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, structure := range []string{server.StructList, server.StructSkip, server.StructHash} {
		caps, _ := server.LookupCapability(structure)
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", structure, seed), func(t *testing.T) {
				t.Parallel() // each run waits on loopback round trips, which overlap
				rng := rand.New(rand.NewSource(seed))

				// R1: shard count.
				s := genStream(seed, caps, false)
				one := runStream(t, streamConfig(structure, 1), s)
				for _, shards := range []int{2, 4} {
					got := runStream(t, streamConfig(structure, shards), s)
					for i, o := range s.ops {
						if o.Kind == op.RangeScan && one.res[i].Status == op.StatusOK {
							if !slices.Equal(got.keys[i], one.keys[i]) {
								t.Fatalf("R1: scan %+v: %d shards returned %v, 1 shard %v", o, shards, got.keys[i], one.keys[i])
							}
						} else if !sameResult(got.res[i], one.res[i]) {
							t.Fatalf("R1: op %+v: %d shards answered %+v, 1 shard %+v", o, shards, got.res[i], one.res[i])
						}
					}
					checkSerialRejected(t, structure, shards, caps)

					// R4 on the sharded build too: pages clamp at shard
					// bounds there, so the cursors follow other paths.
					if shards == 4 {
						checkSplit(t, streamConfig(structure, shards), s, got, rng)
					}
				}

				// R4: frame splits, with the serial-only kinds.
				s = genStream(seed, caps, true)
				mem := runStream(t, streamConfig(structure, 1), s)
				checkSplit(t, streamConfig(structure, 1), s, mem, rng)

				// R2: mode; then R3 against the durable run. Both
				// replay the whole stream, so they run on one seed.
				if seed != seeds[0] {
					return
				}
				durable := streamConfig(structure, 1)
				durable.WALDir, durable.Fsync = t.TempDir(), server.FsyncBatch
				disk := runStream(t, durable, s)
				sameAnswers(t, "R2: durable against in-memory", s, disk, mem)
				checkRestart(t, durable, s, disk, rng)
			})
		}
	}
}

// checkSplit is R4: s with every frame cut into pieces answers each
// op exactly as whole answers it.
func checkSplit(t *testing.T, cfg server.Config, s stream, whole answers, rng *rand.Rand) {
	t.Helper()
	got := runStream(t, cfg, s.split(rng))
	sameAnswers(t, fmt.Sprintf("R4: %d shards, split frames against whole", cfg.Shards), s, got, whole)
}

// checkRestart is R3. A durable run on a fresh directory takes a
// checkpoint whose boundary segment holds seeded frames [j, j+m), so
// recovery must skip their records, and stops after frame k ≥ j+m: the
// directory is put back to what it held then, as a crash would leave
// it. A new server recovers on that directory and serves the rest of
// s, which must answer as the unbroken run whole did and end in its
// state. Frame j pops where the stream pops: set ops are idempotent,
// so only a pop shows a covered record applied twice.
func checkRestart(t *testing.T, cfg server.Config, s stream, whole answers, rng *rand.Rand) {
	t.Helper()
	n := s.frames()
	j := rng.Intn(n - 1)
	var pops []int
	for f := 0; f < n-1; f++ {
		if slices.ContainsFunc(s.ops[s.cuts[f]:s.cuts[f+1]], func(o op.Op) bool { return o.Kind == op.PopMin || o.Kind == op.PopMax }) {
			pops = append(pops, f)
		}
	}
	if len(pops) > 0 {
		j = pops[rng.Intn(len(pops))]
	}
	m := 1 + rng.Intn(min(4, n-1-j))
	k := j + m + rng.Intn(n-j-m)
	cfg.WALDir = t.TempDir()
	srv, addr := startServer(t, cfg)
	c := dial(t, addr)
	a := newAnswers(s)
	a.play(t, cfg, c, s, 0, j)
	if err := srv.Checkpoint(func() { a.play(t, cfg, c, s, j, j+m) }); err != nil {
		t.Fatal(err)
	}
	a.play(t, cfg, c, s, j+m, k)
	crash := crashImage(t, cfg.WALDir)
	stop(srv, c)
	crash()

	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RecoverForTest(); err != nil {
		t.Fatalf("R3: recovery after frame %d, checkpoint over frames [%d, %d): %v", k, j, j+m, err)
	}
	c = dial(t, serve(t, srv))
	a.play(t, cfg, c, s, k, s.frames())
	a.dumps = stop(srv, c)
	sameAnswers(t, fmt.Sprintf("R3: checkpoint over frames [%d, %d), restart after frame %d, against the unbroken run", j, j+m, k),
		s, a, whole)
}

// crashImage reads every file in dir and returns a function that puts
// dir back to exactly those files, undoing what a drain writes since.
func crashImage(t *testing.T, dir string) (restore func()) {
	t.Helper()
	files := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		t.Helper()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameAnswers is the equality every relation but R1 demands: got
// answers each op of s as want does, scans followed to completion
// included, and ends in want's state.
func sameAnswers(t *testing.T, rel string, s stream, got, want answers) {
	t.Helper()
	for i, o := range s.ops {
		if !sameResult(got.res[i], want.res[i]) || !slices.Equal(got.keys[i], want.keys[i]) {
			t.Fatalf("%s: op %+v answered %+v (keys %v), want %+v (keys %v)",
				rel, o, got.res[i], got.keys[i], want.res[i], want.keys[i])
		}
	}
	if !slices.EqualFunc(got.dumps, want.dumps, slices.Equal[[]int64]) {
		t.Fatalf("%s: the runs end in different states", rel)
	}
}

// checkSerialRejected is R1's other half: a sharded server answers
// every serial-only kind of the row with StatusBadKind.
func checkSerialRejected(t *testing.T, structure string, shards int, caps server.Capability) {
	t.Helper()
	var ops []op.Op
	for _, k := range caps.Kinds() {
		if caps.SerialOnly(k) {
			ops = append(ops, op.Op{ID: uint64(len(ops)), Kind: k, Key: streamKeySpace / 2})
		}
	}
	if len(ops) == 0 {
		return
	}
	_, addr := startServer(t, streamConfig(structure, shards))
	c := dial(t, addr)
	c.send(t, ops...)
	for id, r := range c.recv(t, len(ops)) {
		if r.Status != op.StatusBadKind {
			t.Fatalf("R1: %d shards answered %v with %v, want %v", shards, ops[id].Kind, r.Status, op.StatusBadKind)
		}
	}
}

// sameResult compares two results field by field, ignoring the ID
// (follow-up pages reuse IDs) and nil-versus-empty Values.
func sameResult(a, b op.Result) bool {
	return a.Status == b.Status && a.OK == b.OK && a.Value == b.Value && slices.Equal(a.Values, b.Values)
}
