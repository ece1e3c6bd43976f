// Parallelperm shows rearrangeable networks as the interconnect of a
// parallel machine (the paper's §2: "rearrangeable networks are useful
// architectures for parallel machines"): n processors exchange data
// according to compile-time-known permutations — matrix transpose,
// perfect shuffle, bit reversal — realized as n vertex-disjoint circuits.
//
// On the fault-free Beneš network the looping algorithm routes every
// permutation with Θ(n log n) switches. Under switch failures, however,
// rearrangement is powerless (Theorem 1): the same machine built on the
// paper's Network 𝒩 keeps routing.
//
//	go run ./examples/parallelperm
package main

import (
	"fmt"
	"log"

	"ftcsn"
)

const k = 4 // 16 processors

// The permutation workloads a parallel compiler schedules.
var workloads = []struct {
	name string
	perm func(i, n int) int
}{
	{"identity", func(i, n int) int { return i }},
	{"transpose (4x4)", func(i, n int) int { return (i%4)*4 + i/4 }},
	{"perfect shuffle", func(i, n int) int { return (i*2)%n + (i*2)/n }},
	{"bit reversal", func(i, n int) int {
		r := 0
		for b := 0; b < k; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (k - 1 - b)
			}
		}
		return r
	}},
	{"cyclic shift", func(i, n int) int { return (i + 5) % n }},
}

func main() {
	bn, err := ftcsn.NewBenes(k)
	if err != nil {
		log.Fatal(err)
	}
	n := bn.N
	fmt.Printf("Beneš interconnect for %d processors: %d switches, %d columns\n\n",
		n, bn.G.NumEdges(), bn.Columns)

	// Phase 1: fault-free machine — the looping algorithm routes every
	// workload permutation as wire-disjoint circuits.
	for _, w := range workloads {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = w.perm(i, n)
		}
		paths, err := bn.RoutePermutation(perm)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		if err := bn.VerifyRouting(perm, paths); err != nil {
			log.Fatalf("%s: routing invalid: %v", w.name, err)
		}
		fmt.Printf("  looping routed %-17s as %d disjoint circuits of %d hops\n",
			w.name, n, bn.Columns-1)
	}

	// Phase 2: the machine ages — switches fail at rate ε. The Beneš
	// fabric loses processors outright; Network 𝒩 keeps every workload
	// routable through greedy repair-and-route.
	const eps = 0.01
	fmt.Printf("\nafter aging at ε=%v per switch:\n", eps)

	inst := ftcsn.Inject(bn.G, ftcsn.Symmetric(eps), 3)
	if in, out := inst.IsolatedPair(); in >= 0 {
		fmt.Printf("  beneš: processor link %d can no longer reach %d — machine degraded\n", in, out)
	} else {
		fmt.Println("  beneš: survived this draw (rerun with another seed; survival → 0 as n grows)")
	}

	nn, err := ftcsn.Build(ftcsn.Params{Nu: 2, Gamma: 0, M: 16, DQ: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	inst2 := ftcsn.Inject(nn.G, ftcsn.Symmetric(eps), 3)
	eng := ftcsn.NewRepairedShardedEngine(inst2)
	reqs := make([]ftcsn.RouteRequest, 16)
	for _, w := range workloads {
		for i := range reqs {
			reqs[i] = ftcsn.RouteRequest{In: nn.Inputs()[i], Out: nn.Outputs()[w.perm(i, 16)]}
		}
		routed := 0
		for _, res := range eng.ConnectBatch(reqs, nil) {
			if res.Path != nil {
				routed++
			}
		}
		fmt.Printf("  network-𝒩: %-17s %2d/16 circuits (with %d faulty switches discarded)\n",
			w.name, routed, inst2.NumFailed())
		eng.Reset()
	}
}
