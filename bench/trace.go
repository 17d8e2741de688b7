package main

//pimvet:allow-file determinism: the benchmark measures the host's wall clock by definition; its inputs stay seeded, only timing is physical

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"pimds/internal/prof"
	"pimds/internal/server"
)

// span is one entry of a workload's span file. Spans of one request
// frame share trace_id; parent_id 0 marks the frame's root. Times are ns
// since the rig's epoch (taken just before server.New, so the server's
// own stamps, which count from its construction, line up to within the
// few hundred ns New needs to reach its clock read).
type span struct {
	TraceID uint64 `json:"-"`
	Trace   string `json:"trace_id"`
	ID      int    `json:"span_id"`
	Parent  int    `json:"parent_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

const (
	rootSpan = "client.frame"
	// spanFileFrames caps the span file at the most recent sampled
	// frames: 64 ops × 7 server spans each adds up quickly.
	spanFileFrames = 32
)

// joinSpans joins the clients' spans with the server's finished op spans
// under the frame's trace id. Only frames whose every op is still in the
// server's ring are kept; the newest spanFileFrames of them are returned
// as one flat list with ids assigned:
//
//	client.frame
//	├── client.encode, client.write_flush, client.wait…, client.decode…, client.verify…
//	└── server.op ×64, each tiled by the six server components
func joinSpans(clientSpans []span, serverSpans []server.SpanRecord) ([]span, error) {
	byTrace := map[uint64][]server.SpanRecord{}
	for _, rec := range serverSpans {
		id, err := strconv.ParseUint(rec.TraceID, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("server span trace id %q: %w", rec.TraceID, err)
		}
		byTrace[id] = append(byTrace[id], rec)
	}
	// A client's spans arrive children first, root last, frame by frame.
	type frame struct{ root, first, end int }
	var frames []frame
	first := 0
	for i, sp := range clientSpans {
		if sp.Name != rootSpan {
			continue
		}
		if len(byTrace[sp.TraceID]) == frameOps {
			frames = append(frames, frame{root: i, first: first, end: i})
		}
		first = i + 1
	}
	sort.Slice(frames, func(i, j int) bool {
		return clientSpans[frames[i].root].StartNS < clientSpans[frames[j].root].StartNS
	})
	if len(frames) > spanFileFrames {
		frames = frames[len(frames)-spanFileFrames:]
	}

	var out []span
	add := func(sp span, parent int) int {
		sp.ID, sp.Parent = len(out)+1, parent
		sp.Trace = fmt.Sprintf("0x%016x", sp.TraceID)
		out = append(out, sp)
		return sp.ID
	}
	for _, f := range frames {
		// The root is the frame's envelope. The client's round trip opens
		// it, but the server stamps write_flush after its flush returns,
		// by when the client may already hold the answer — so the last
		// server stamp can close it.
		root := clientSpans[f.root]
		for _, rec := range byTrace[root.TraceID] {
			root.StartNS = min(root.StartNS, rec.StartNS)
			root.EndNS = max(root.EndNS, rec.StartNS+rec.E2ENS)
		}
		rootID := add(root, 0)
		for _, sp := range clientSpans[f.first:f.end] {
			add(sp, rootID)
		}
		for _, rec := range byTrace[root.TraceID] {
			opID := add(span{TraceID: root.TraceID, Name: "server.op",
				StartNS: rec.StartNS, EndNS: rec.StartNS + rec.E2ENS}, rootID)
			at := rec.StartNS
			for i := 0; i < prof.NumServerComponents; i++ {
				name := prof.ServerComponent(i).String()
				add(span{TraceID: root.TraceID, Name: "server." + name,
					StartNS: at, EndNS: at + rec.ComponentsNS[name]}, opID)
				at += rec.ComponentsNS[name]
			}
		}
	}
	return out, nil
}

// outDir is where span files go.
var outDir = filepath.Join("bench", "out")

func spanFile(workload string) string { return filepath.Join(outDir, workload+".trace.json") }

func writeSpanFile(workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(spanFile(workload), data, 0o644)
}
