// Command ftbench regenerates every experiment table of the reproduction
// (E1–E13, covering all quantitative artifacts of Pippenger & Lin 1994:
// Proposition 1, Lemmas 1–7, Theorems 1–2, Figs. 1–5, plus the §2–§4
// surveys) and prints them as Markdown. EXPERIMENTS.md at the repo root is
// its output:
//
//	go run ./cmd/ftbench -mode quick -o EXPERIMENTS.md
//
// All experiments run on the zero-allocation batched block engine
// (fault.BatchInjector + core.Evaluator + montecarlo.RunBoolWith/RunWith):
// each worker owns one reusable scratch (fault instance, repair masks,
// access checker, pooled router), workers claim trials in contiguous
// blocks whose failure positions are drawn in one geometric-skip sweep,
// and repair masks are maintained incrementally from the per-trial diffs —
// so per-trial overhead is O(#failure changes), not O(switches), and trial
// throughput is bounded by graph traversal, not GC or resets. Trial
// churn is batch-shaped (netsim.ChurnDriver over the route.Engine seam,
// bit-identical to the per-op protocol), and E9 drives every engine
// through that same seam.
//
// Usage:
//
//	ftbench [-mode quick|full] [-only E7] [-o file]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ftcsn/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is ftbench with its arguments and streams passed in; it returns the
// exit code: 2 for a bad flag, mode or experiment ID — all checked before
// the output file is created, so a typo never truncates it — 1 when the
// output file cannot be created.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "quick", "experiment scale: quick or full")
	only := fs.String("only", "", "comma-separated experiment IDs (e.g. E1,E7); empty = all")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var m experiments.Mode
	switch *mode {
	case "quick":
		m = experiments.Quick
	case "full":
		m = experiments.Full
	default:
		fmt.Fprintf(stderr, "ftbench: unknown mode %q\n", *mode)
		return 2
	}

	want, unknown := selectIDs(*only)
	if len(unknown) > 0 {
		fmt.Fprintf(stderr, "ftbench: unknown experiment ID(s) %s\n", strings.Join(unknown, ", "))
		return 2
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "ftbench: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	// The header is date-free on purpose: quick-mode output is committed as
	// EXPERIMENTS.md and the CI determinism gate regenerates it and fails on
	// any diff, so every byte must be a pure function of the code.
	fmt.Fprintf(w, "# EXPERIMENTS — Fault-Tolerant Circuit-Switching Networks (Pippenger & Lin)\n\n")
	fmt.Fprintf(w, "Generated by `ftbench -mode %s` (regenerate with `make experiments`; CI fails on drift).\n", *mode)
	fmt.Fprintf(w, "Paper-vs-measured for every table/figure-equivalent artifact; see DESIGN.md §4 for the experiment index.\n\n")

	for _, e := range experiments.Registry() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		res := e.Run(m)
		res.Render(w)
		fmt.Fprintf(stderr, "ftbench: %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// selectIDs parses a comma-separated -only list (case-insensitive, blanks
// ignored) into the set of requested registry IDs, and returns the
// requested IDs the registry does not know, in the order given. An empty
// list selects every experiment.
func selectIDs(only string) (want map[string]bool, unknown []string) {
	known := map[string]bool{}
	for _, e := range experiments.Registry() {
		known[e.ID] = true
	}
	want = map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !known[id] {
			unknown = append(unknown, id)
		}
		want[id] = true
	}
	return want, unknown
}
