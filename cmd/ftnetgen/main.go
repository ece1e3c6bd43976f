// Command ftnetgen builds circuit-switching networks and reports their
// complexity measures (size = switches, depth = longest path), the
// Theorem-1 lower bounds, and optionally a Graphviz rendering.
//
// Usage:
//
//	ftnetgen -kind network-n -nu 2 [-gamma 0 -m 8 -dq 3 -seed 1] [-dot out.dot]
//	ftnetgen -kind benes -k 4
//	ftnetgen -kind butterfly -k 4
//	ftnetgen -kind multibutterfly -k 4 -d 2
//	ftnetgen -kind clos -n0 4 -r 4 [-mm 7]
//	ftnetgen -kind superconcentrator -n 64 [-d 3]
//	ftnetgen -kind paper-accounting          # closed-form Theorem-2 table
package main

import (
	"flag"
	"fmt"
	"os"

	"ftcsn/internal/benes"
	"ftcsn/internal/butterfly"
	"ftcsn/internal/clos"
	"ftcsn/internal/core"
	"ftcsn/internal/graph"
	"ftcsn/internal/lowerbound"
	"ftcsn/internal/multibutterfly"
	"ftcsn/internal/stats"
	"ftcsn/internal/superconc"
)

func main() {
	kind := flag.String("kind", "network-n", "network-n | benes | butterfly | multibutterfly | clos | superconcentrator | paper-accounting")
	nu := flag.Int("nu", 2, "ν for network-n (n = 4^ν)")
	gamma := flag.Int("gamma", 0, "γ scale-up for network-n")
	m := flag.Int("m", 8, "row multiplier M for network-n")
	dq := flag.Int("dq", 3, "matchings per quarter DQ for network-n")
	seed := flag.Uint64("seed", 1, "construction seed")
	k := flag.Int("k", 4, "k for benes/butterfly/multibutterfly (n = 2^k)")
	d := flag.Int("d", 2, "multiplicity/degree for multibutterfly/superconcentrator (3 for superconcentrator when not set)")
	n0 := flag.Int("n0", 4, "Clos input-crossbar width")
	r := flag.Int("r", 4, "Clos crossbar count")
	mm := flag.Int("mm", 0, "Clos middle count (0 = strict 2n0-1)")
	n := flag.Int("n", 64, "superconcentrator terminal count")
	dot := flag.String("dot", "", "write Graphviz DOT to file")
	analyze := flag.Bool("analyze", false, "run the Theorem-1 zone analysis (slow on big graphs)")
	flag.Parse()
	dSet := false
	flag.Visit(func(f *flag.Flag) { dSet = dSet || f.Name == "d" })
	if !dSet && *kind == "superconcentrator" {
		// No degree-2 concentrator passes the Hall check at the default n.
		*d = 3
	}

	if *kind == "paper-accounting" {
		tab := stats.NewTable("ν", "n", "γ", "L", "edges (faithful)", "edges (claimed)", "depth")
		for v := 1; v <= 10; v++ {
			pa := core.PaperAccounting(v)
			tab.AddRow(v, pa.N, pa.Gamma, pa.L, pa.EdgesFaithful, pa.EdgesClaimed, pa.DepthFaithful)
		}
		fmt.Print(tab.String())
		return
	}

	var g *graph.Graph
	var name string
	switch *kind {
	case "network-n":
		p := core.Params{Nu: *nu, Gamma: *gamma, M: *m, DQ: *dq, Seed: *seed}
		nw, err := core.Build(p)
		die(err)
		g = nw.G
		name = fmt.Sprintf("network-N(nu=%d,gamma=%d,M=%d,DQ=%d)", *nu, *gamma, *m, *dq)
		a := core.Accounting(p)
		fmt.Printf("accounting: terminals=%d grids=%d core=%d total=%d\n",
			a.TerminalEdges, a.GridEdges, a.CoreEdges, a.Edges)
	case "benes":
		nw, err := benes.New(*k)
		die(err)
		g, name = nw.G, fmt.Sprintf("benes(k=%d)", *k)
	case "butterfly":
		nw, err := butterfly.New(*k)
		die(err)
		g, name = nw.G, fmt.Sprintf("butterfly(k=%d)", *k)
	case "multibutterfly":
		nw, err := multibutterfly.New(*k, *d, *seed)
		die(err)
		g, name = nw.G, fmt.Sprintf("multibutterfly(k=%d,d=%d)", *k, *d)
	case "clos":
		mid := *mm
		if mid == 0 {
			mid = 2**n0 - 1
		}
		nw, err := clos.New(*n0, mid, *r)
		die(err)
		g, name = nw.G, fmt.Sprintf("clos(n0=%d,m=%d,r=%d) strict=%v", *n0, mid, *r, nw.IsStrictSenseNonblocking())
	case "superconcentrator":
		nw, err := superconc.New(*n, *d, *seed)
		die(err)
		g, name = nw.G, fmt.Sprintf("superconcentrator(n=%d,d=%d)", *n, *d)
	default:
		die(fmt.Errorf("unknown kind %q", *kind))
	}

	st := graph.ComputeStats(g)
	fmt.Printf("%s: %s\n", name, st)
	nTerm := len(g.Inputs())
	fmt.Printf("theorem-1 bounds for n=%d: size ≥ %.2f, depth ≥ %.2f\n",
		nTerm, core.LowerBoundSize(nTerm), core.LowerBoundDepth(nTerm))

	if *analyze {
		cert := lowerbound.Analyze(g)
		fmt.Printf("good inputs: %d/%d (min pairwise distance %d)\n",
			cert.GoodInputs, nTerm, cert.MinInputDist)
		fmt.Printf("worst zone size at radius %d: %d\n", cert.ZoneRadius, cert.MinOfMinZones())
	}
	if *dot != "" {
		die(os.WriteFile(*dot, []byte(g.DOT("ftcsn")), 0o644))
		fmt.Printf("wrote %s\n", *dot)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftnetgen: %v\n", err)
		os.Exit(1)
	}
}
