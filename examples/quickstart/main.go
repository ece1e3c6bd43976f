// Quickstart: build the paper's fault-tolerant nonblocking network,
// break 0.2% of its switches, repair it by the paper's discard rule, and
// route circuits through what survives.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ftcsn"
)

func main() {
	// Network 𝒩 with n = 4² = 16 inputs and outputs at laptop scale
	// (the paper's structure, scaled-down constants).
	nw, err := ftcsn.Build(ftcsn.DefaultParams(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built Network 𝒩: %d terminals, %d switches, depth %d\n",
		len(nw.Inputs()), nw.G.NumEdges(), ftcsn.Accounting(nw.P).Depth)

	// Every switch independently fails open or closed with ε = 0.002.
	inst := ftcsn.Inject(nw.G, ftcsn.Symmetric(0.002), 42)
	fmt.Printf("injected faults: %d open, %d closed\n", inst.NumOpen(), inst.NumClosed())

	// The paper's repair: discard both endpoints of every failed switch
	// (§4: "merely by discarding faulty components and their immediate
	// neighbors"), then route greedily — no clever algorithms needed. The
	// engine serves the batch in order, one request at a time.
	eng := ftcsn.NewRepairedShardedEngine(inst)
	reqs := make([]ftcsn.RouteRequest, len(nw.Inputs()))
	for i, in := range nw.Inputs() {
		reqs[i] = ftcsn.RouteRequest{In: in, Out: nw.Outputs()[(i*7+3)%len(nw.Outputs())]}
	}
	established := 0
	for i, res := range eng.ConnectBatch(reqs, nil) {
		if res.Path == nil {
			fmt.Printf("  request %2d: BLOCKED\n", i)
			continue
		}
		established++
		fmt.Printf("  request %2d: routed over %d switches\n", i, len(res.Path)-1)
	}
	fmt.Printf("%d/%d circuits established on the repaired network\n",
		established, len(nw.Inputs()))

	// The full Theorem-2 pipeline in one call: inject → repair →
	// majority-access certificate → churn.
	outcome := nw.Evaluate(ftcsn.Symmetric(0.002), 43, 200)
	fmt.Printf("Theorem-2 pipeline: success=%v (majority access=%v, churn blocked=%d)\n",
		outcome.Success, outcome.MajorityAccess, outcome.ChurnFailures)
}
