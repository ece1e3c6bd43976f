// Command ftlint runs the repository's contract analyzers — determinism,
// deadexport, hotpath, seamcontract (see internal/analysis) — over the
// whole module and exits nonzero on any finding. It is the static half of
// the invariants the test suite pins at runtime, and `make lint` wires it
// next to go vet so CI and local runs are identical.
//
// Usage:
//
//	ftlint
//
// It takes no arguments: one pass loads every buildable package of the
// module containing the working directory — e2ebench, the commands and
// the examples included — because a rule such as deadexport ("no
// non-test file references this name") means nothing on a subset.
// Analyzer scoping is policy, not per-invocation choice: each analyzer
// covers the packages its contract names (analysis.Analyzer.Scope).
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"ftcsn/internal/analysis"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: ftlint (it takes no arguments and lints the whole module)")
		os.Exit(2)
	}
	n, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Printf("ftlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

func run() (int, error) {
	wd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	ld, err := analysis.NewLoader(wd)
	if err != nil {
		return 0, err
	}
	pkgs, err := ld.LoadAll(ld.ModulePath)
	if err != nil {
		return 0, err
	}
	findings, err := analysis.Run(pkgs, analysis.Analyzers())
	if err != nil {
		return 0, err
	}
	for _, f := range findings {
		if rel, err := filepath.Rel(wd, f.Pos.Filename); err == nil {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	return len(findings), nil
}
