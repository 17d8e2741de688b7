// Command pimvet is the repo's custom static analyzer: it enforces the
// invariants the Go compiler cannot see — simulator determinism, and
// the allocation-free, non-blocking contract on annotated hot paths —
// using only the standard library's go/parser, go/types and
// go/importer. The same check runs inside `go test ./...` as
// TestRepoIsClean (internal/analysis/analyzers); this command prints
// the findings for a chosen set of packages.
//
// Usage:
//
//	pimvet [-list] [packages]
//
// Packages use go-tool patterns relative to the current directory
// ("./...", "./internal/sim"). With no arguments, ./... is checked.
// Every analyzer runs. Exit status is 1 if any diagnostic is reported.
//
// One function annotation opts a hot path into the transitive
// contract, checked through every module call it makes:
//
//	//pimvet:allocfree    // in a doc comment: no heap allocation, no blocking
//
// Suppressions are in-source comments, and each needs a justification
// after the colon (an allow without one is itself a finding):
//
//	//pimvet:allow determinism: host wall-clock timing by design
//	//pimvet:allow-file determinism: whole file is host-side
package main

import (
	"flag"
	"fmt"
	"os"

	"pimds/internal/analysis"
	"pimds/internal/analysis/analyzers"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
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
	diags, err := analysis.Run(loader, dirs, analyzers.All())
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
