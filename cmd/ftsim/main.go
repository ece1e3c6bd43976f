// Command ftsim runs Monte-Carlo fault simulations on Network 𝒩 and the
// baselines: for a sweep of switch-failure rates ε it reports the
// probability that the network survives (and, for 𝒩, the full Theorem-2
// pipeline outcome).
//
// Usage:
//
//	ftsim -nu 2 -trials 200 -eps 0.0005,0.002,0.01 [-churn 100]
//	ftsim -kind benes -k 6 -trials 500 -eps 0.01,0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ftcsn/internal/benes"
	"ftcsn/internal/butterfly"
	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/rng"
	"ftcsn/internal/stats"
)

func main() {
	kind := flag.String("kind", "network-n", "network-n | benes | butterfly")
	nu := flag.Int("nu", 2, "ν for network-n")
	gamma := flag.Int("gamma", 0, "γ for network-n")
	m := flag.Int("m", 8, "M for network-n")
	dq := flag.Int("dq", 3, "DQ for network-n")
	k := flag.Int("k", 4, "k for benes/butterfly")
	epsList := flag.String("eps", "0.0005,0.002,0.01", "comma-separated ε values")
	trials := flag.Int("trials", 200, "Monte-Carlo trials per ε")
	churn := flag.Int("churn", 100, "churn operations per trial (network-n only)")
	seed := flag.Uint64("seed", 1, "root seed")
	flag.Parse()
	if *trials < 1 {
		die(fmt.Errorf("-trials must be >= 1, got %d", *trials))
	}
	if *churn < 0 {
		die(fmt.Errorf("-churn must be >= 0, got %d", *churn))
	}

	var epss []float64
	for _, s := range strings.Split(*epsList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		die(err)
		if err := fault.Symmetric(v).Validate(); err != nil {
			die(fmt.Errorf("-eps %g: %w", v, err))
		}
		epss = append(epss, v)
	}

	switch *kind {
	case "network-n":
		p := core.Params{Nu: *nu, Gamma: *gamma, M: *m, DQ: *dq, Seed: 1}
		nw, err := core.Build(p)
		die(err)
		fmt.Printf("network-N: n=%d L=%d edges=%d\n", p.N(), p.L(), nw.G.NumEdges())
		tab := stats.NewTable("ε", "P[success] (95% CI)", "P[majority]", "P[shorted]", "mean failed switches")
		// One evaluator serves every ε: each sweep point is one block whose
		// trial i draws from rng.New(seed+i).
		ev := core.NewEvaluator(nw)
		var out core.TrialOutcome
		for _, eps := range epss {
			var succ, maj, shorted stats.Proportion
			var failed stats.Sample
			ev.StartBlockSeq(fault.Symmetric(eps), *seed, 0, *trials)
			for i := 0; i < *trials; i++ {
				ev.EvaluateNextInto(&out, *churn)
				succ.Add(out.Success)
				maj.Add(out.MajorityAccess)
				shorted.Add(out.Shorted)
				failed.Add(float64(out.FailedSwitches))
			}
			tab.AddRow(eps, succ.String(), maj.Estimate(), shorted.Estimate(), failed.Mean())
		}
		fmt.Print(tab.String())
	case "benes", "butterfly":
		var g *graph.Graph
		if *kind == "benes" {
			nw, err := benes.New(*k)
			die(err)
			g = nw.G
		} else {
			nw, err := butterfly.New(*k)
			die(err)
			g = nw.G
		}
		fmt.Printf("%s: n=%d edges=%d\n", *kind, len(g.Inputs()), g.NumEdges())
		tab := stats.NewTable("ε", "P[survive basic checks] (95% CI)")
		// One fault instance and one witness scratch per worker, redrawn
		// in place every trial.
		type scratch struct {
			inst *fault.Instance
			sc   *fault.Scratch
		}
		newScratch := func() scratch { return scratch{fault.NewInstance(g), fault.NewScratch(g)} }
		for _, eps := range epss {
			m := fault.Symmetric(eps)
			p := montecarlo.RunBoolWith(montecarlo.Config{Trials: *trials, Seed: *seed}, newScratch,
				func(r *rng.RNG, s scratch) bool {
					fault.InjectInto(s.inst, m, r)
					return s.inst.SurvivesBasicChecksWith(s.sc)
				})
			tab.AddRow(eps, p.String())
		}
		fmt.Print(tab.String())
	default:
		die(fmt.Errorf("unknown kind %q", *kind))
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftsim: %v\n", err)
		os.Exit(1)
	}
}
