// Videoswitch simulates the paper's motivating application: a video
// switching center built from metallic-contact switches, which exhibit
// exactly the two failure modes of the model — contacts that never close
// (open failure) and contacts welded shut (closed failure).
//
// A day of operation is simulated as a session workload: video feeds
// (input terminals) are patched to monitors (output terminals) for random
// holding times. We compare three plants of the same terminal count:
// a Beneš fabric (cheap, Θ(n log n) switches), a multibutterfly, and the
// paper's Network 𝒩 (Θ(n log²n)), all at the same per-switch failure
// rate, and report the blocked-call rate of each.
//
//	go run ./examples/videoswitch
package main

import (
	"fmt"
	"log"

	"ftcsn"
	"ftcsn/internal/core"
	"ftcsn/internal/graph"
	"ftcsn/internal/multibutterfly"
	"ftcsn/internal/rng"
)

// plant is one candidate switching fabric.
type plant struct {
	name string
	g    *graph.Graph
}

func main() {
	const eps = 0.004 // per-contact failure rate of an aging plant
	const sessions = 400

	bn, err := ftcsn.NewBenes(4) // n = 16
	if err != nil {
		log.Fatal(err)
	}
	mb, err := multibutterfly.New(4, 2, 9)
	if err != nil {
		log.Fatal(err)
	}
	nn, err := ftcsn.Build(core.Params{Nu: 2, Gamma: 0, M: 16, DQ: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	plants := []plant{
		{"benes (Θ(n log n))", bn.G},
		{"multibutterfly d=2 (Θ(n log n))", mb.G},
		{"network-𝒩 (Θ(n log²n))", nn.G},
	}

	fmt.Printf("video switching center: 16 feeds × 16 monitors, ε=%v per contact\n\n", eps)
	fmt.Printf("%-34s %9s %9s %9s %8s\n", "fabric", "switches", "attempts", "blocked", "rate")
	for _, pl := range plants {
		attempts, blocked := simulateDay(pl.g, eps, sessions)
		fmt.Printf("%-34s %9d %9d %9d %7.1f%%\n",
			pl.name, pl.g.NumEdges(), attempts, blocked, 100*float64(blocked)/float64(attempts))
	}
	fmt.Println("\nthe Θ(n log²n) plant buys its reliability with log-degree terminal")
	fmt.Println("wiring: no single welded or dead contact can strand a feed (Theorem 2);")
	fmt.Println("the cheaper plants lose whole feeds to single contacts (Theorem 1).")
}

// simulateDay drives a session workload over the faulted, repaired fabric:
// random patch requests between idle feeds and idle monitors, with random
// teardowns, counting blocked patch attempts.
func simulateDay(g *graph.Graph, eps float64, sessions int) (attempts, blocked int) {
	r := rng.New(2026)
	inst := ftcsn.Inject(g, ftcsn.Symmetric(eps), 77)
	eng := ftcsn.NewRepairedShardedEngine(inst)
	req := make([]ftcsn.RouteRequest, 1) // one patch request per batch
	var res []ftcsn.RouteResult

	type patch struct{ in, out int32 }
	var live []patch
	idleIn := append([]int32(nil), g.Inputs()...)
	idleOut := append([]int32(nil), g.Outputs()...)
	for s := 0; s < sessions; s++ {
		if len(live) == 0 || (len(idleIn) > 0 && r.Bernoulli(0.55)) {
			if len(idleIn) == 0 || len(idleOut) == 0 {
				continue
			}
			i := r.Intn(len(idleIn))
			o := r.Intn(len(idleOut))
			attempts++
			req[0] = ftcsn.RouteRequest{In: idleIn[i], Out: idleOut[o]}
			if res = eng.ConnectBatch(req, res); res[0].Path == nil {
				blocked++
				continue
			}
			live = append(live, patch{idleIn[i], idleOut[o]})
			idleIn[i] = idleIn[len(idleIn)-1]
			idleIn = idleIn[:len(idleIn)-1]
			idleOut[o] = idleOut[len(idleOut)-1]
			idleOut = idleOut[:len(idleOut)-1]
		} else {
			pi := r.Intn(len(live))
			p := live[pi]
			if err := eng.Disconnect(p.in, p.out); err == nil {
				idleIn = append(idleIn, p.in)
				idleOut = append(idleOut, p.out)
			}
			live[pi] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return attempts, blocked
}
