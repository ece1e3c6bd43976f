package core

// Property-based tests of the Network-𝒩 construction and its fault
// pipeline, over randomly drawn parameters and fault instances.

import (
	"testing"
	"testing/quick"

	"ftcsn/internal/fault"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// randomParams draws small but varied parameters.
func randomParams(r *rng.RNG) Params {
	return Params{
		Nu:    1 + r.Intn(2),
		Gamma: r.Intn(2),
		M:     []int{2, 4, 8}[r.Intn(3)],
		DQ:    1 + r.Intn(3),
		Seed:  r.Uint64(),
	}
}

// TestQuickConstructionInvariants: for any valid parameters the built
// network satisfies the structural invariants of §6.
func TestQuickConstructionInvariants(t *testing.T) {
	root := rng.New(0xC0DE)
	f := func(tick uint32) bool {
		r := root.Split(uint64(tick))
		p := randomParams(r)
		nw, err := Build(p)
		if err != nil {
			t.Logf("build error for %+v: %v", p, err)
			return false
		}
		g := nw.G
		// (1) Validate: terminals well-formed.
		if g.Validate() != nil {
			return false
		}
		// (2) Edge count matches the closed form.
		if g.NumEdges() != Accounting(p).Edges {
			return false
		}
		// (3) Depth is exactly 4ν.
		d, err := g.Depth()
		if err != nil || d != 4*p.Nu {
			return false
		}
		// (4) Levels are consecutive: every switch joins level s to s+1.
		lv, err := g.Levels()
		if err != nil {
			return false
		}
		stage := lv.PerVertex()
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if stage[g.EdgeTo(e)]-stage[g.EdgeFrom(e)] != 1 {
				return false
			}
		}
		// (5) Terminal degrees equal L.
		for _, in := range nw.Inputs() {
			if g.OutDegree(in) != p.L() {
				return false
			}
		}
		// (6) Mirror symmetry of per-transition edge counts.
		counts := make([]int, 4*p.Nu)
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			counts[stage[g.EdgeFrom(e)]]++
		}
		for s := range counts {
			if counts[s] != counts[len(counts)-1-s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFaultPipelineSound: for any fault draw, the pipeline outcome is
// internally consistent — shorted instances never succeed, fault-free
// instances always do, and majority access implies churn never blocks.
func TestQuickFaultPipelineSound(t *testing.T) {
	nw, err := Build(Params{Nu: 2, Gamma: 0, M: 4, DQ: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(0xFA17)
	ev := NewEvaluator(nw)
	f := func(tick uint32) bool {
		r := root.Split(uint64(tick))
		eps := []float64{0, 0.001, 0.01, 0.05}[r.Intn(4)]
		out := ev.Evaluate(fault.Symmetric(eps), r.Uint64(), 60)
		if eps == 0 && !out.Success {
			return false
		}
		if out.Shorted && out.Success {
			return false
		}
		if out.Success && out.ChurnFailures > 0 {
			return false
		}
		// Majority access must imply zero churn failures: the certificate
		// is sufficient for strict nonblockingness.
		if out.MajorityAccess && out.ChurnFailures > 0 {
			return false
		}
		// Counters consistent.
		if out.FailedSwitches != out.OpenSwitches+out.ClosedSwitches {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRepairMasksConsistent: every usable switch under the repair has
// both endpoints usable and is normal; every discarded vertex is adjacent
// to a failed switch.
func TestQuickRepairMasksConsistent(t *testing.T) {
	nw, err := Build(Params{Nu: 1, Gamma: 1, M: 2, DQ: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(0x9A5)
	f := func(tick uint32) bool {
		r := root.Split(uint64(tick))
		inst := fault.Inject(nw.G, fault.Symmetric(0.02), r)
		masks := RepairMasks(inst)
		for e := int32(0); e < int32(nw.G.NumEdges()); e++ {
			if masks.EdgeOK[e] {
				if inst.Edge[e] != fault.Normal {
					return false
				}
				if !masks.VertexOK[nw.G.EdgeFrom(e)] || !masks.VertexOK[nw.G.EdgeTo(e)] {
					return false
				}
			}
		}
		faulty := inst.FaultyVerticesInto(nil)
		for v := int32(0); v < int32(nw.G.NumVertices()); v++ {
			if !masks.VertexOK[v] {
				if nw.G.IsTerminal(v) {
					return false // terminals never discarded
				}
				if !faulty[v] {
					return false // discarded but not faulty
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAccessMonotoneInMasks: restricting the masks can only reduce
// access counts. Each draw discards random non-terminals, then more on
// top of those, and the production certificate must count no terminal
// higher under the tighter VertexOK, on either side.
func TestQuickAccessMonotoneInMasks(t *testing.T) {
	nw, err := Build(Params{Nu: 2, Gamma: 0, M: 4, DQ: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := nw.G
	ac := NewAccessChecker(nw)
	var looser, tighter MajorityReport
	root := rng.New(0xACCE)
	f := func(tick uint32) bool {
		r := root.Split(uint64(tick))
		vertexOK := make([]bool, g.NumVertices())
		for v := range vertexOK {
			vertexOK[v] = true
		}
		discard := func(k int) Masks {
			for i := 0; i < k; i++ {
				if v := int32(r.Intn(g.NumVertices())); !g.IsTerminal(v) {
					vertexOK[v] = false
				}
			}
			return Masks{
				VertexOK:   vertexOK,
				OutAllowed: g.BuildOutAllowed(nil, vertexOK, nil),
			}
		}
		nw.MajorityAccessInto(ac, discard(15), &looser)
		nw.MajorityAccessInto(ac, discard(15), &tighter)
		for i, c := range tighter.InputAccess {
			if c > looser.InputAccess[i] {
				return false
			}
		}
		for j, c := range tighter.OutputAccess {
			if c > looser.OutputAccess[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnAgainstRouterInvariants: long random churn maintains router
// invariants at every 50th step.
func TestChurnAgainstRouterInvariants(t *testing.T) {
	nw, err := Build(Params{Nu: 2, Gamma: 0, M: 4, DQ: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	inst := fault.Inject(nw.G, fault.Symmetric(0.002), rng.New(12))
	rt := route.NewRepairedRouter(inst)
	r := rng.New(13)
	var cd netsim.ChurnDriver
	for round := 0; round < 10; round++ {
		cd.Run(rt, nw.Inputs(), nw.Outputs(), 50, r)
		if err := rt.VerifyInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rt.Reset()
	}
}
