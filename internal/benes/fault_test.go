package benes

// Fault-interaction tests: the Beneš baseline under the paper's failure
// model and repair, quantifying WHY Theorem 1 excludes it.

import (
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/maxflow"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

func TestRepairedRoutingDegradesGracefully(t *testing.T) {
	// With few faults, most circuits still route greedily on the repaired
	// network — Beneš has path diversity away from the terminals.
	nw, err := New(4) // n=16
	if err != nil {
		t.Fatal(err)
	}
	inst := fault.Inject(nw.G, fault.Symmetric(0.005), rng.New(5))
	rt := route.NewRepairedRouter(inst)
	ok := 0
	for i := 0; i < nw.N; i++ {
		if _, err := rt.Connect(nw.G.Inputs()[i], nw.G.Outputs()[(i+3)%nw.N]); err == nil {
			ok++
		}
	}
	if ok < nw.N/2 {
		t.Fatalf("only %d/%d circuits at ε=0.005", ok, nw.N)
	}
}

func TestTerminalEdgeFaultIsolatesInput(t *testing.T) {
	// The Achilles heel: open BOTH switches of one input — no repair can
	// help, the input is gone. This is the heart of Lemma 2/Theorem 1.
	nw, _ := New(3)
	inst := fault.NewInstance(nw.G)
	in := nw.G.Inputs()[3]
	for _, e := range nw.G.OutEdges(in) {
		inst.SetState(e, fault.Open)
	}
	if a, _ := inst.IsolatedPair(); a != in {
		t.Fatalf("isolated pair reports %d, want input %d", a, in)
	}
	// The discard repair makes it WORSE: both of input 3's first-column
	// wires are discarded, and its butterfly partner (input 3^(n/2) = 7)
	// has those same two wires as its only targets — so the repair cuts
	// off TWO inputs. Constant terminal degree means faults amplify under
	// repair; yet another face of Theorem 1's exclusion.
	usable := inst.Repair()
	flow := maxflow.VertexDisjointPathsAvoiding(nw.G, nw.G.Inputs(), nw.G.Outputs(),
		func(v int32) bool { return usable[v] },
		func(e int32) bool { return inst.RepairedEdgeUsable(usable, e) })
	if flow != nw.N-2 {
		t.Fatalf("flow = %d, want %d (faulted input + its repair-starved partner)", flow, nw.N-2)
	}
}

func TestInternalFaultsRarelyFatal(t *testing.T) {
	// Faults away from terminals usually leave full saturation intact —
	// the contrast with terminal faults above. Place a single fault on a
	// middle-column switch and verify saturation survives.
	nw, _ := New(4)
	midEdges := []int32{}
	for e := int32(0); e < int32(nw.G.NumEdges()); e++ {
		if nw.G.EdgeFrom(e)/int32(nw.N) == int32(nw.K) { // middle transition: the tail is in column K
			midEdges = append(midEdges, e)
		}
	}
	r := rng.New(17)
	for trial := 0; trial < 10; trial++ {
		inst := fault.NewInstance(nw.G)
		inst.SetState(midEdges[r.Intn(len(midEdges))], fault.Open)
		usable := inst.Repair()
		flow := maxflow.VertexDisjointPathsAvoiding(nw.G, nw.G.Inputs(), nw.G.Outputs(),
			func(v int32) bool { return usable[v] },
			func(e int32) bool { return inst.RepairedEdgeUsable(usable, e) })
		if flow < nw.N-2 {
			t.Fatalf("single middle fault dropped saturation to %d", flow)
		}
	}
}

func TestLoopingVsRepairedGreedy(t *testing.T) {
	// On the fault-free network, greedy routing of a permutation can block
	// (Beneš is not strictly nonblocking), but looping always succeeds:
	// cross-validate on permutations where greedy fails.
	nw, _ := New(3)
	r := rng.New(23)
	greedyFails := 0
	for trial := 0; trial < 50; trial++ {
		perm := r.Perm(nw.N)
		rt := route.NewRouter(nw.G)
		blocked := false
		for i, p := range perm {
			if _, err := rt.Connect(nw.G.Inputs()[i], nw.G.Outputs()[p]); err != nil {
				blocked = true
				break
			}
		}
		if blocked {
			greedyFails++
			// Looping must still route it.
			paths, err := nw.RoutePermutation(perm)
			if err != nil {
				t.Fatalf("looping failed where greedy blocked: %v", err)
			}
			if err := nw.VerifyRouting(perm, paths); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("greedy blocked on %d/50 permutations (looping routed them all)", greedyFails)
}

func TestSurvivalMonotoneInEps(t *testing.T) {
	nw, _ := New(5)
	rate := func(eps float64) float64 {
		inst, sc := fault.NewInstance(nw.G), fault.NewScratch(nw.G)
		ok := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			inst.Reinject(fault.Symmetric(eps), rng.Stream(71, uint64(i)))
			if inst.SurvivesBasicChecksWith(sc) {
				ok++
			}
		}
		return float64(ok) / trials
	}
	r1, r2, r3 := rate(0.002), rate(0.02), rate(0.1)
	if !(r1 >= r2 && r2 >= r3) {
		t.Fatalf("survival not monotone: %v %v %v", r1, r2, r3)
	}
}
