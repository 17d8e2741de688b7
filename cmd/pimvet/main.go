// Command pimvet is the repo's custom static analyzer: it enforces the
// invariants the Go compiler cannot see — simulator determinism,
// cost-model accounting, observability safety, and the
// allocation-free/non-blocking contracts on annotated hot paths —
// using only the standard library's go/parser, go/types and
// go/importer.
//
// Usage:
//
//	pimvet [-strict] [-c analyzer1,analyzer2] [packages]
//
// Packages use go-tool patterns relative to the current directory
// ("./...", "./internal/sim"). With no arguments, ./... is checked.
// Exit status is 1 if any diagnostic is reported.
//
// Function annotations opt hot paths into transitive contracts,
// checked through every module call they make:
//
//	//pimvet:allocfree    // in a doc comment: no heap allocation
//	//pimvet:nonblocking  // in a doc comment: never parks the goroutine
//
// Suppressions are in-source comments:
//
//	//pimvet:allow determinism: host wall-clock timing by design
//	//pimvet:allow-file determinism: whole file is host-side
//
// Under -strict (what CI runs) a suppression without a justification
// after the colon is itself an error.
package main

import (
	"flag"
	"fmt"
	"os"

	"pimds/internal/analysis"
	"pimds/internal/analysis/analyzers"
)

func main() {
	var (
		strict = flag.Bool("strict", false, "fail on suppressions without a justification")
		checks = flag.String("c", "all", "comma-separated analyzers to run (default: all)")
		list   = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	as := analyzers.ByName(*checks)
	if as == nil {
		fmt.Fprintf(os.Stderr, "pimvet: unknown analyzer in %q (try -list)\n", *checks)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimvet:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimvet:", err)
		os.Exit(2)
	}
	dirs, err := analysis.ExpandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimvet:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(loader, dirs, as, analysis.Options{Strict: *strict})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimvet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pimvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
