// Command ftroute demonstrates circuit routing on a faulted, repaired
// Network 𝒩: it injects switch failures, applies the paper's discard
// repair, prints the majority-access certificate, then drives a random
// connect/disconnect session workload and reports per-request outcomes.
//
// Usage:
//
//	ftroute -nu 2 -eps 0.002 -ops 40 [-concurrent -workers 4]
package main

import (
	"flag"
	"fmt"
	"os"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

func main() {
	nu := flag.Int("nu", 2, "ν (n = 4^ν terminals)")
	m := flag.Int("m", 8, "row multiplier M")
	dq := flag.Int("dq", 3, "expander matchings per quarter")
	eps := flag.Float64("eps", 0.002, "switch failure rate ε (open = closed = ε)")
	ops := flag.Int("ops", 40, "churn operations")
	seed := flag.Uint64("seed", 7, "seed")
	concurrent := flag.Bool("concurrent", false, "route one permutation batch on the sharded engine instead of churning")
	workers := flag.Int("workers", 4, "shard count of the -concurrent batch")
	flag.Parse()
	if err := fault.Symmetric(*eps).Validate(); err != nil {
		die(fmt.Errorf("-eps %g: %w", *eps, err))
	}
	if *concurrent && *workers < 1 {
		die(fmt.Errorf("-workers must be >= 1, got %d", *workers))
	}

	p := core.Params{Nu: *nu, Gamma: 0, M: *m, DQ: *dq, Seed: 1}
	nw, err := core.Build(p)
	die(err)
	fmt.Printf("network-N: n=%d, %d switches, depth %d\n", p.N(), nw.G.NumEdges(), core.Accounting(p).Depth)

	r := rng.New(*seed)
	inst := fault.Inject(nw.G, fault.Symmetric(*eps), r)
	fmt.Printf("faults: %d open, %d closed of %d switches (ε=%v)\n",
		inst.NumOpen(), inst.NumClosed(), nw.G.NumEdges(), *eps)
	if a, b := inst.ShortedTerminals(); a >= 0 {
		fmt.Printf("FATAL FAULT PATTERN: terminals %d and %d are shorted together\n", a, b)
	}

	masks := core.RepairMasks(inst)
	discarded := 0
	for _, ok := range masks.VertexOK {
		if !ok {
			discarded++
		}
	}
	fmt.Printf("repair: discarded %d faulty vertices\n", discarded)

	ac := core.NewAccessChecker(nw)
	rep := nw.MajorityAccess(ac, masks)
	fmt.Printf("majority-access certificate (Lemma 6): OK=%v (middle stage %d, strict majority needed %d)\n",
		rep.OK, rep.MiddleSize, rep.MiddleSize/2+1)

	if *concurrent {
		n := p.N()
		perm := r.Perm(n)
		reqs := make([]route.Request, n)
		for i := range reqs {
			reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
		}
		se := route.NewRepairedShardedEngine(inst, *workers)
		results := se.ConnectBatch(reqs, nil)
		okCount := 0
		for _, res := range results {
			if res.Path != nil {
				okCount++
			}
		}
		fmt.Printf("concurrent batch: %d/%d circuits established with %d shards\n", okCount, n, *workers)
		if err := se.VerifyState(); err != nil {
			fmt.Printf("INVARIANT VIOLATION: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rt := route.NewRepairedRouter(inst)
	var cd netsim.ChurnDriver
	connects, failures, pathTotal := cd.Run(rt, nw.Inputs(), nw.Outputs(), *ops, r)
	fmt.Printf("churn: %d connects, %d blocked, mean path length %.1f switches, %d circuits live at end\n",
		connects, failures, avg(pathTotal, connects-failures), rt.ActiveCircuits())
	if err := rt.VerifyInvariants(); err != nil {
		fmt.Printf("INVARIANT VIOLATION: %v\n", err)
		os.Exit(1)
	}
	if rep.OK && failures > 0 {
		fmt.Println("WARNING: requests blocked despite the majority-access certificate — please file a bug")
	}
}

func avg(total, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftroute: %v\n", err)
		os.Exit(1)
	}
}
