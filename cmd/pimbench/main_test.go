package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"pimds/internal/harness"
)

// TestSimulatorBaseline is the exact simulator gate: every experiment
// that runs in virtual time, printed by pimbench at -quick -seed 1,
// must reproduce the committed BENCH_SIM.txt byte for byte. Virtual
// time is driven by the cost model alone, so any difference means a
// change moved simulated behaviour (a charge, a step count, a seeded
// stream or a cell's format). Such a change regenerates the file and
// says why.
func TestSimulatorBaseline(t *testing.T) {
	var ids []string
	for _, e := range harness.Experiments() {
		if !strings.HasSuffix(e.ID, "-host") {
			ids = append(ids, e.ID)
		}
	}
	args := []string{"-exp", strings.Join(ids, ","), "-quick", "-seed", "1"}
	var got, errOut bytes.Buffer
	if code := run(args, &got, &errOut); code != 0 {
		t.Fatalf("pimbench %s exited %d: %s", strings.Join(args, " "), code, errOut.String())
	}
	want, err := os.ReadFile("../../BENCH_SIM.txt")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "<end of output>", "<end of file>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("BENCH_SIM.txt line %d differs:\n  got:  %s\n  want: %s", i+1, g, w)
			break
		}
	}
	t.Errorf("simulated behaviour changed. If that is intended, regenerate the baseline from the repository root and explain the change:\n"+
		"  go run ./cmd/pimbench %s > BENCH_SIM.txt", strings.Join(args, " "))
}
