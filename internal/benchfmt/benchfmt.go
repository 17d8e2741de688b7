// Package benchfmt defines the machine-readable benchmark format
// written by `pimbench -json` and the comparison logic behind
// `benchdiff`: it parses the human-oriented table cells (throughput
// suffixes, virtual-time durations, percentage shares) back into
// numbers and flags relative changes beyond a threshold.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Table is one rendered experiment table, mirroring harness.Table.
type Table struct {
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// ExperimentResult is the output of one experiment run.
type ExperimentResult struct {
	ID          string  `json:"id"`
	Description string  `json:"description,omitempty"`
	Tables      []Table `json:"tables"`
}

// Params records the model knobs a report was generated with, so a
// diff across different configurations can be rejected loudly.
type Params struct {
	R1     float64 `json:"r1"`
	R2     float64 `json:"r2"`
	R3     float64 `json:"r3"`
	LcpuNS float64 `json:"lcpu_ns"`
	Seed   int64   `json:"seed"`
	Quick  bool    `json:"quick"`
}

// Report is a full `pimbench -json` run.
type Report struct {
	Name        string             `json:"name"`
	Params      Params             `json:"params"`
	Experiments []ExperimentResult `json:"experiments"`
}

// Write serializes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Read parses a report written by Write.
func Read(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	return &rep, nil
}

// Severity classifies a finding.
type Severity string

const (
	// SevRegression: a metric moved beyond threshold in the bad
	// direction (throughput down, latency up).
	SevRegression Severity = "regression"
	// SevImprovement: beyond threshold in the good direction.
	SevImprovement Severity = "improvement"
	// SevDrift: beyond threshold in a column with no known better
	// direction (e.g. attribution shares).
	SevDrift Severity = "drift"
	// SevStructure: experiments, tables, rows or labels differ, so
	// cells could not be compared.
	SevStructure Severity = "structure"
)

// Finding is one compared cell (or structural mismatch).
type Finding struct {
	Severity Severity `json:"severity"`
	Exp      string   `json:"exp"`
	Table    string   `json:"table,omitempty"`
	Row      string   `json:"row,omitempty"`
	Column   string   `json:"column,omitempty"`
	Old      string   `json:"old,omitempty"`
	New      string   `json:"new,omitempty"`
	DeltaPct float64  `json:"delta_pct,omitempty"`
	Detail   string   `json:"detail,omitempty"`
}

func (f Finding) String() string {
	loc := f.Exp
	if f.Table != "" {
		loc += " / " + f.Table
	}
	if f.Row != "" {
		loc += " / " + f.Row
	}
	if f.Column != "" {
		loc += " / " + f.Column
	}
	if f.Detail != "" {
		return fmt.Sprintf("%-11s %s: %s", f.Severity, loc, f.Detail)
	}
	return fmt.Sprintf("%-11s %s: %s -> %s (%+.1f%%)", f.Severity, loc, f.Old, f.New, f.DeltaPct)
}

// direction returns +1 when higher is better (throughput), -1 when
// lower is better (latency, allocations, error-budget burn), 0 when
// unknown.
func direction(column string) int {
	c := strings.ToLower(column)
	switch {
	case strings.Contains(c, "ops/s"), strings.Contains(c, "throughput"), strings.Contains(c, "speedup"):
		return +1
	case strings.Contains(c, "p50"), strings.Contains(c, "p95"), strings.Contains(c, "p99"),
		strings.Contains(c, "latency"),
		strings.Contains(c, "burn"),
		allocColumn(c):
		return -1
	default:
		return 0
	}
}

// allocColumn reports whether a (lowercased) column header is an
// allocation metric: allocs/op or B/op as emitted by pimload and the
// testing package's benchmark output.
func allocColumn(c string) bool {
	return strings.Contains(c, "allocs/op") || strings.Contains(c, "b/op") || strings.Contains(c, "alloc")
}

// ParseCell parses a table cell rendered by the harness back into a
// number: plain numbers, K/M/G-suffixed throughputs, Go duration
// strings (virtual times), and percentages (as fractions). The second
// return is false for labels and placeholders.
func ParseCell(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" || s == "—" {
		return 0, false
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, true
	}
	if strings.HasSuffix(s, "%") {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64); err == nil {
			return v / 100, true
		}
		return 0, false
	}
	if n := len(s); n > 1 {
		if mult, ok := map[byte]float64{'K': 1e3, 'M': 1e6, 'G': 1e9}[s[n-1]]; ok {
			if v, err := strconv.ParseFloat(s[:n-1], 64); err == nil {
				return v * mult, true
			}
		}
	}
	if d, err := time.ParseDuration(s); err == nil {
		return float64(d), true
	}
	return 0, false
}

// CompareOptions tunes Compare.
type CompareOptions struct {
	// ThresholdPct is the relative change (percent) beyond which a
	// numeric cell is reported. Zero reports every change: the exact
	// gate for seeded virtual-time tables that reproduce byte-for-byte.
	ThresholdPct float64
	// AllocThresholdPct overrides ThresholdPct for allocation columns
	// (allocs/op, B/op). Allocation counts are far less noisy than
	// wall-clock throughput, so a tighter gate catches allocation
	// regressions that would hide inside the timing threshold. Zero
	// inherits ThresholdPct.
	AllocThresholdPct float64
}

// Compare aligns two reports and returns findings for every numeric
// cell whose relative change exceeds the threshold, plus structural
// mismatches. Rows are aligned by index with their first (label) cell
// checked, which is sound because the harness emits rows in a fixed
// deterministic order.
func Compare(old, new *Report, opt CompareOptions) []Finding {
	var out []Finding
	if old.Params != new.Params {
		out = append(out, Finding{
			Severity: SevStructure, Exp: "(params)",
			Detail: fmt.Sprintf("reports were generated with different parameters: %+v vs %+v", old.Params, new.Params),
		})
	}

	newExps := make(map[string]*ExperimentResult, len(new.Experiments))
	for i := range new.Experiments {
		newExps[new.Experiments[i].ID] = &new.Experiments[i]
	}
	seen := make(map[string]bool, len(old.Experiments))
	for i := range old.Experiments {
		oe := &old.Experiments[i]
		seen[oe.ID] = true
		ne, ok := newExps[oe.ID]
		if !ok {
			out = append(out, Finding{Severity: SevStructure, Exp: oe.ID, Detail: "experiment missing from new report"})
			continue
		}
		out = append(out, compareExperiment(oe, ne, opt)...)
	}
	for i := range new.Experiments {
		if !seen[new.Experiments[i].ID] {
			out = append(out, Finding{Severity: SevStructure, Exp: new.Experiments[i].ID, Detail: "experiment only in new report"})
		}
	}
	return out
}

func compareExperiment(oe, ne *ExperimentResult, opt CompareOptions) []Finding {
	var out []Finding
	newTabs := make(map[string]*Table, len(ne.Tables))
	for i := range ne.Tables {
		newTabs[ne.Tables[i].Title] = &ne.Tables[i]
	}
	for i := range oe.Tables {
		ot := &oe.Tables[i]
		nt, ok := newTabs[ot.Title]
		if !ok {
			out = append(out, Finding{Severity: SevStructure, Exp: oe.ID, Table: ot.Title, Detail: "table missing from new report"})
			continue
		}
		out = append(out, compareTable(oe.ID, ot, nt, opt)...)
	}
	return out
}

func compareTable(exp string, ot, nt *Table, opt CompareOptions) []Finding {
	var out []Finding
	if len(ot.Rows) != len(nt.Rows) {
		out = append(out, Finding{
			Severity: SevStructure, Exp: exp, Table: ot.Title,
			Detail: fmt.Sprintf("row count changed: %d vs %d", len(ot.Rows), len(nt.Rows)),
		})
		return out
	}
	for r := range ot.Rows {
		orow, nrow := ot.Rows[r], nt.Rows[r]
		label := rowLabel(orow, r)
		if len(orow) != len(nrow) || rowLabel(nrow, r) != label {
			out = append(out, Finding{
				Severity: SevStructure, Exp: exp, Table: ot.Title, Row: label,
				Detail: fmt.Sprintf("row shape/label changed: %v vs %v", orow, nrow),
			})
			continue
		}
		for c := range orow {
			ov, oNum := ParseCell(orow[c])
			nv, nNum := ParseCell(nrow[c])
			if !oNum || !nNum {
				continue
			}
			col := ""
			if c < len(ot.Columns) {
				col = ot.Columns[c]
			}
			threshold := opt.ThresholdPct
			if opt.AllocThresholdPct > 0 && allocColumn(strings.ToLower(col)) {
				threshold = opt.AllocThresholdPct
			}
			delta := deltaPct(ov, nv)
			if math.Abs(delta) <= threshold {
				continue
			}
			sev := SevDrift
			switch direction(col) {
			case +1:
				sev = SevImprovement
				if nv < ov {
					sev = SevRegression
				}
			case -1:
				sev = SevImprovement
				if nv > ov {
					sev = SevRegression
				}
			}
			out = append(out, Finding{
				Severity: sev, Exp: exp, Table: ot.Title, Row: label, Column: col,
				Old: orow[c], New: nrow[c], DeltaPct: delta,
			})
		}
	}
	return out
}

// rowLabel identifies a row by its non-numeric cells (structure and
// variant names); purely numeric rows fall back to their index. Rows
// are matched positionally — the harness emits them in a fixed order —
// so the label is for display and a sanity check, not a join key.
func rowLabel(row []string, idx int) string {
	var parts []string
	for _, cell := range row {
		if _, num := ParseCell(cell); !num {
			parts = append(parts, cell)
		}
	}
	if len(parts) == 0 {
		return fmt.Sprintf("row %d", idx)
	}
	return strings.Join(parts, " ")
}

func deltaPct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (new - old) / math.Abs(old) * 100
}
