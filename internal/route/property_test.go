package route

// Property-based tests of both routing engines over random staged
// networks, random request sequences, and random faults.

import (
	"testing"
	"testing/quick"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// randomStaged builds a random 3-stage network: nIn inputs, mid middle
// links, nOut outputs, with each input wired to a random subset of middles
// and each middle to a random subset of outputs (at least one each).
func randomStaged(r *rng.RNG) *graph.Graph {
	nIn := 2 + r.Intn(4)
	mid := 2 + r.Intn(6)
	nOut := 2 + r.Intn(4)
	b := graph.NewBuilder(nIn+mid+nOut, nIn*mid+mid*nOut)
	ins := make([]int32, nIn)
	mids := make([]int32, mid)
	outs := make([]int32, nOut)
	for i := range ins {
		ins[i] = b.AddVertex(0)
		b.MarkInput(ins[i])
	}
	for i := range mids {
		mids[i] = b.AddVertex(1)
	}
	for i := range outs {
		outs[i] = b.AddVertex(2)
		b.MarkOutput(outs[i])
	}
	for _, in := range ins {
		deg := 1 + r.Intn(mid)
		for _, m := range r.Sample(mid, deg) {
			b.AddEdge(in, mids[m])
		}
	}
	for _, m := range mids {
		deg := 1 + r.Intn(nOut)
		for _, o := range r.Sample(nOut, deg) {
			b.AddEdge(m, outs[o])
		}
	}
	return b.Freeze()
}

// TestQuickRouterInvariantsUnderRandomOps: any interleaving of connects
// and disconnects keeps the router's invariants and never produces a path
// through a busy or foreign-terminal vertex.
func TestQuickRouterInvariantsUnderRandomOps(t *testing.T) {
	root := rng.New(0x40)
	f := func(tick uint16) bool {
		r := root.Split(uint64(tick))
		g := randomStaged(r)
		rt := NewRouter(g)
		type cir struct{ in, out int32 }
		var live []cir
		for op := 0; op < 60; op++ {
			if len(live) == 0 || r.Bernoulli(0.6) {
				in := g.Inputs()[r.Intn(len(g.Inputs()))]
				out := g.Outputs()[r.Intn(len(g.Outputs()))]
				path, err := rt.Connect(in, out)
				if err == nil {
					// Path must start/end correctly and use only middle
					// vertices internally.
					if path[0] != in || path[len(path)-1] != out {
						return false
					}
					for _, v := range path[1 : len(path)-1] {
						if g.IsTerminal(v) {
							return false
						}
					}
					live = append(live, cir{in, out})
				}
			} else {
				i := r.Intn(len(live))
				if rt.Disconnect(live[i].in, live[i].out) != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if rt.VerifyInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConnectNeverUsesFailedSwitch: on repaired networks, established
// paths never traverse failed switches or discarded vertices.
func TestQuickConnectNeverUsesFailedSwitch(t *testing.T) {
	root := rng.New(0x41)
	f := func(tick uint16) bool {
		r := root.Split(uint64(tick))
		g := randomStaged(r)
		inst := fault.Inject(g, fault.Symmetric(0.15), r)
		usable := inst.Repair()
		rt := NewRepairedRouter(inst)
		for trial := 0; trial < 10; trial++ {
			in := g.Inputs()[r.Intn(len(g.Inputs()))]
			out := g.Outputs()[r.Intn(len(g.Outputs()))]
			path, err := rt.Connect(in, out)
			if err != nil {
				continue
			}
			for i, v := range path {
				if !usable[v] {
					return false
				}
				if i == 0 {
					continue
				}
				// The switch used must be normal.
				ok := false
				for _, e := range g.OutEdges(path[i-1]) {
					if g.EdgeTo(e) == v && inst.Edge[e] == fault.Normal {
						ok = true
					}
				}
				if !ok {
					return false
				}
			}
			_ = rt.Disconnect(in, out)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConcurrentDisjointness: under arbitrary request batches, the
// guided engine's circuits are vertex-disjoint and exactly claimed, and
// its decisions are the sequential router's.
func TestQuickConcurrentDisjointness(t *testing.T) {
	root := rng.New(0x42)
	f := func(tick uint16) bool {
		r := root.Split(uint64(tick))
		g := randomStaged(r)
		se := NewShardedEngine(g, 1)
		var reqs []Request
		for i := 0; i < 24; i++ {
			reqs = append(reqs, Request{
				In:  g.Inputs()[r.Intn(len(g.Inputs()))],
				Out: g.Outputs()[r.Intn(len(g.Outputs()))],
			})
		}
		results := se.ConnectBatch(reqs, nil)
		want := NewRouter(g).ConnectBatch(reqs, nil)
		for i := range results {
			if (results[i].Path == nil) != (want[i].Path == nil) {
				return false
			}
		}
		return se.VerifyState() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialAndConcurrentAgreeOnCapacity: when requests are disjoint
// by construction (a partial matching), the sequential router and the
// sharded engine establish them all on a crossbar-complete network.
func TestSequentialAndConcurrentAgreeOnCapacity(t *testing.T) {
	// Dense network: every input sees every middle, every middle every
	// output, middles ≥ terminals: all matchings route.
	b := graph.NewBuilder(12, 32)
	var ins, mids, outs []int32
	for i := 0; i < 4; i++ {
		v := b.AddVertex(0)
		b.MarkInput(v)
		ins = append(ins, v)
	}
	for i := 0; i < 4; i++ {
		mids = append(mids, b.AddVertex(1))
	}
	for i := 0; i < 4; i++ {
		v := b.AddVertex(2)
		b.MarkOutput(v)
		outs = append(outs, v)
	}
	for _, in := range ins {
		for _, m := range mids {
			b.AddEdge(in, m)
		}
	}
	for _, m := range mids {
		for _, o := range outs {
			b.AddEdge(m, o)
		}
	}
	g := b.Freeze()

	r := rng.New(0x43)
	for trial := 0; trial < 20; trial++ {
		perm := r.Perm(4)
		// Sequential.
		rt := NewRouter(g)
		seqOK := 0
		for i, p := range perm {
			if _, err := rt.Connect(ins[i], outs[p]); err == nil {
				seqOK++
			}
		}
		// Sharded.
		se := NewShardedEngine(g, 1)
		reqs := make([]Request, 4)
		for i, p := range perm {
			reqs[i] = Request{In: ins[i], Out: outs[p]}
		}
		results := se.ConnectBatch(reqs, nil)
		concOK := 0
		for _, res := range results {
			if res.Path != nil {
				concOK++
			}
		}
		if seqOK != 4 || concOK != 4 {
			t.Fatalf("trial %d: sequential %d/4, sharded %d/4", trial, seqOK, concOK)
		}
	}
}
