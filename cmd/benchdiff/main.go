// Command benchdiff compares two machine-readable benchmark reports
// written by `pimbench -json` and flags cells whose relative change
// exceeds a threshold.
//
// Usage:
//
//	benchdiff [-threshold 10] old.json new.json
//
// Exit status: 0 when no regression was found (improvements and
// drifts are reported but do not fail), 1 when at least one column
// with a known better direction moved the wrong way beyond the
// threshold, 2 on usage or I/O errors. Structural mismatches
// (different parameters, experiments, tables or rows) are reported
// loudly but treated like drift: they usually mean the reports are
// not comparable, not that the code got slower.
package main

import (
	"flag"
	"fmt"
	"os"

	"pimds/internal/benchfmt"
)

func main() {
	threshold := flag.Float64("threshold", 10, "relative change (percent) beyond which a cell is flagged (0 = any change)")
	allocThreshold := flag.Float64("alloc-threshold", 0, "tighter threshold (percent) for allocs/op and B/op columns (0 = same as -threshold)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchdiff [-threshold pct] [-alloc-threshold pct] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	load := func(path string) *benchfmt.Report {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		rep, err := benchfmt.Read(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(2)
		}
		return rep
	}
	oldRep := load(flag.Arg(0))
	newRep := load(flag.Arg(1))

	findings := benchfmt.Compare(oldRep, newRep, benchfmt.CompareOptions{
		ThresholdPct:      *threshold,
		AllocThresholdPct: *allocThreshold,
	})
	counts := map[benchfmt.Severity]int{}
	for _, f := range findings {
		counts[f.Severity]++
		fmt.Println(f)
	}
	if len(findings) == 0 {
		fmt.Printf("no changes beyond %.0f%% between %s and %s\n", *threshold, flag.Arg(0), flag.Arg(1))
		return
	}
	fmt.Printf("%d finding(s): %d regression, %d improvement, %d drift, %d structure\n",
		len(findings), counts[benchfmt.SevRegression], counts[benchfmt.SevImprovement],
		counts[benchfmt.SevDrift], counts[benchfmt.SevStructure])
	if counts[benchfmt.SevRegression] > 0 {
		os.Exit(1)
	}
}
