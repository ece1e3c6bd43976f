package hammock

import (
	"math"
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

func TestGridStructure(t *testing.T) {
	b := graph.NewBuilder(0)
	g := BuildInto(b, 4, 8, false) // the Fig. 4 grid
	gr := b.Freeze()
	g.Bind(gr)
	if gr.NumVertices() != 32 {
		t.Fatalf("vertices = %d", gr.NumVertices())
	}
	if gr.NumEdges() != g.EdgeCount() {
		t.Fatalf("edges = %d, EdgeCount = %d", gr.NumEdges(), g.EdgeCount())
	}
	// Non-cyclic: (2l-1)(w-1) = 7*7 = 49.
	if g.EdgeCount() != 49 {
		t.Fatalf("EdgeCount = %d, want 49", g.EdgeCount())
	}
	// Interior vertex degree 2 out, 2 in.
	v := g.VertexAt(1, 3)
	if gr.OutDegree(v) != 2 || gr.InDegree(v) != 2 {
		t.Fatalf("interior degrees: out=%d in=%d", gr.OutDegree(v), gr.InDegree(v))
	}
	// Last row (non-cyclic) has only the straight out-edge.
	v = g.VertexAt(3, 3)
	if gr.OutDegree(v) != 1 {
		t.Fatalf("bottom row out-degree = %d", gr.OutDegree(v))
	}
	// Last stage has no out-edges.
	v = g.VertexAt(0, 7)
	if gr.OutDegree(v) != 0 {
		t.Fatalf("last stage out-degree = %d", gr.OutDegree(v))
	}
}

func TestGridCyclicStructure(t *testing.T) {
	b := graph.NewBuilder(0)
	g := BuildInto(b, 4, 3, true)
	gr := b.Freeze()
	g.Bind(gr)
	// Cyclic: 2l(w-1) = 8*2 = 16 edges; every non-final vertex out-degree 2.
	if gr.NumEdges() != 16 || g.EdgeCount() != 16 {
		t.Fatalf("edges = %d / %d", gr.NumEdges(), g.EdgeCount())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if gr.OutDegree(g.VertexAt(i, j)) != 2 {
				t.Fatalf("vertex (%d,%d) out-degree != 2", i, j)
			}
		}
	}
	// Every stage-1+ vertex has in-degree 2 (wraparound covers row 0).
	for i := 0; i < 4; i++ {
		if gr.InDegree(g.VertexAt(i, 1)) != 2 {
			t.Fatalf("vertex (%d,1) in-degree != 2", i)
		}
	}
}

func TestVertexAtPanics(t *testing.T) {
	b := graph.NewBuilder(0)
	g := BuildInto(b, 2, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("VertexAt out of range did not panic")
		}
	}()
	g.VertexAt(2, 0)
}

func TestNetworkValidates(t *testing.T) {
	n := NewNetwork(4, 6, false)
	if err := n.G.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := n.G.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 { // source edge + 5 grid transitions + sink edge
		t.Fatalf("depth = %d, want 7", d)
	}
	// Healthy network conducts.
	inst := fault.NewInstance(n.G)
	if in, _ := inst.IsolatedPair(); in >= 0 {
		t.Fatal("healthy hammock disconnected")
	}
}

func TestNetworkEdgeCount(t *testing.T) {
	l, w := 5, 4
	n := NewNetwork(l, w, true)
	want := 2*l*(w-1) + 2*l
	if n.G.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", n.G.NumEdges(), want)
	}
}

func TestBoundsDecreaseWithDimension(t *testing.T) {
	eps := 0.05
	for d := 3; d < 10; d++ {
		if ShortUpperBound(d+1, d+1, eps) > ShortUpperBound(d, d, eps) {
			t.Fatalf("short bound not decreasing at d=%d", d)
		}
		if OpenUpperBound(d+1, d+1, eps) > OpenUpperBound(d, d, eps) {
			t.Fatalf("open bound not decreasing at d=%d", d)
		}
	}
}

func TestBoundsAreProbabilities(t *testing.T) {
	for _, eps := range []float64{0.01, 0.1, 0.3} {
		for d := 1; d < 20; d++ {
			s := ShortUpperBound(d, d, eps)
			o := OpenUpperBound(d, d, eps)
			if s < 0 || s > 1 || o < 0 || o > 1 {
				t.Fatalf("bounds out of range at d=%d eps=%v: %v %v", d, eps, s, o)
			}
		}
	}
}

func TestDimensionGrowsLogarithmically(t *testing.T) {
	eps := 0.05
	d3, err := Dimension(eps, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	d6, err := Dimension(eps, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	d12, err := Dimension(eps, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !(d3 <= d6 && d6 <= d12) {
		t.Fatalf("dimension not monotone: %d %d %d", d3, d6, d12)
	}
	// log(1/ε′) doubles from 1e-6 to 1e-12: dimension should roughly double,
	// certainly not square.
	if d12 > 4*d6 {
		t.Fatalf("dimension growth superlinear in log(1/ε′): %d -> %d", d6, d12)
	}
}

func TestDimensionRejects(t *testing.T) {
	if _, err := Dimension(0.2, 1e-3); err == nil {
		t.Fatal("accepted eps >= 1/6")
	}
	if _, err := Dimension(0.05, 0); err == nil {
		t.Fatal("accepted epsPrime = 0")
	}
}

func TestAmplifierProposition1(t *testing.T) {
	eps, epsPrime := 0.05, 1e-4
	a, err := NewAmplifier(eps, epsPrime)
	if err != nil {
		t.Fatal(err)
	}
	if a.POpenBound >= epsPrime || a.PShortBound >= epsPrime {
		t.Fatalf("bounds not met: open=%v short=%v", a.POpenBound, a.PShortBound)
	}
	d := a.Net.Grid.L
	if a.Size() != (2*d-1)*(d-1)+2*d {
		t.Fatalf("size accounting wrong: %d", a.Size())
	}
	if a.Depth() != d+1 {
		t.Fatalf("depth = %d, want %d", a.Depth(), d+1)
	}
}

func TestAmplifierEmpirical(t *testing.T) {
	// Monte-Carlo check that a small amplifier really beats its target.
	eps, epsPrime := 0.05, 0.02
	a, err := NewAmplifier(eps, epsPrime)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(55)
	inst := fault.NewInstance(a.Net.G)
	const trials = 5000
	opens, shorts := 0, 0
	for i := 0; i < trials; i++ {
		inst.Reinject(fault.Symmetric(eps), r)
		if in, _ := inst.IsolatedPair(); in >= 0 {
			opens++
		}
		if x, _ := inst.ShortedTerminals(); x >= 0 {
			shorts++
		}
	}
	// Allow generous slack: the bound itself plus MC noise.
	if float64(opens)/trials > epsPrime+5*math.Sqrt(epsPrime/trials) {
		t.Errorf("open rate %v above target %v", float64(opens)/trials, epsPrime)
	}
	if float64(shorts)/trials > epsPrime+5*math.Sqrt(epsPrime/trials) {
		t.Errorf("short rate %v above target %v", float64(shorts)/trials, epsPrime)
	}
}

func TestExactFailureProbsWithinBounds(t *testing.T) {
	a, err := NewAmplifier(0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a.Net.Grid.L > 12 {
		t.Skip("amplifier too large for exact DP")
	}
	pOpen, pShort, err := a.ExactFailureProbs()
	if err != nil {
		t.Fatal(err)
	}
	// DP open is an upper bound on true open, so it must sit below the
	// analytic cut bound; DP short is a lower bound on true short, so it
	// must sit below the analytic path bound.
	if pOpen > a.POpenBound {
		t.Errorf("DP open %v above analytic bound %v", pOpen, a.POpenBound)
	}
	if pShort > a.PShortBound {
		t.Errorf("DP short %v above analytic bound %v", pShort, a.PShortBound)
	}
}

func TestAccessNetworkHealthy(t *testing.T) {
	an := NewAccessNetwork(6, 5, true)
	if err := an.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := an.LastStageAccess(nil); got != 6 {
		t.Fatalf("healthy access = %d, want 6", got)
	}
}

func TestAccessNetworkBlocked(t *testing.T) {
	an := NewAccessNetwork(4, 3, true)
	// Block the entire first stage: nothing reachable.
	first := map[int32]bool{}
	for i := 0; i < 4; i++ {
		first[an.Grid.VertexAt(i, 0)] = true
	}
	if got := an.LastStageAccess(func(v int32) bool { return !first[v] }); got != 0 {
		t.Fatalf("access through blocked stage = %d", got)
	}
	// Block one first-stage row: cyclic diagonals still reach every
	// last-stage row within 2 transitions.
	one := an.Grid.VertexAt(0, 0)
	if got := an.LastStageAccess(func(v int32) bool { return v != one }); got != 4 {
		t.Fatalf("access with one blocked row = %d, want 4", got)
	}
}

func TestSubstituteEdgesStructure(t *testing.T) {
	// A single switch in -> out substituted by an (l,w) hammock.
	b := graph.NewBuilder(1)
	in := b.AddVertex()
	out := b.AddVertex()
	b.AddEdge(in, out)
	b.MarkInput(in)
	b.MarkOutput(out)
	g := b.Freeze()

	l, w := 3, 4
	sub := SubstituteEdges(g, l, w, false)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	wantV := 2 + l*w
	if sub.NumVertices() != wantV {
		t.Fatalf("vertices = %d, want %d", sub.NumVertices(), wantV)
	}
	wantE := 2*l + (2*l-1)*(w-1)
	if sub.NumEdges() != wantE {
		t.Fatalf("edges = %d, want %d", sub.NumEdges(), wantE)
	}
	d, err := sub.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != w+1 {
		t.Fatalf("depth = %d, want %d", d, w+1)
	}
	// Terminals preserved with original IDs.
	if sub.Inputs()[0] != in || sub.Outputs()[0] != out {
		t.Fatal("terminal IDs changed")
	}
	// Still conducts when healthy.
	inst := fault.NewInstance(sub)
	if a, _ := inst.IsolatedPair(); a >= 0 {
		t.Fatal("healthy substituted network disconnected")
	}
}

func TestSubstituteEdgesAmplifies(t *testing.T) {
	// Substituted 3-switch line survives single-hammock-internal faults.
	b := graph.NewBuilder(3)
	v0 := b.AddVertex()
	v1 := b.AddVertex()
	v2 := b.AddVertex()
	v3 := b.AddVertex()
	b.AddEdge(v0, v1)
	b.AddEdge(v1, v2)
	b.AddEdge(v2, v3)
	b.MarkInput(v0)
	b.MarkOutput(v3)
	g := b.Freeze()
	sub := SubstituteEdges(g, 4, 4, false)

	// Plain line dies to ANY single open switch; the substituted one must
	// survive any single open switch (min cut is 4 per hammock).
	for e := int32(0); e < int32(sub.NumEdges()); e++ {
		inst := fault.NewInstance(sub)
		inst.SetState(e, fault.Open)
		if a, _ := inst.IsolatedPair(); a >= 0 {
			t.Fatalf("single open switch %d disconnected the substituted line", e)
		}
	}
}

func TestSubstituteEdgesMonteCarlo(t *testing.T) {
	// Empirical §3 check on the 3-switch line: at ε=0.05 the substituted
	// network must beat the plain one by a wide margin.
	b := graph.NewBuilder(3)
	vs := make([]int32, 4)
	for i := range vs {
		vs[i] = b.AddVertex()
	}
	for i := 0; i < 3; i++ {
		b.AddEdge(vs[i], vs[i+1])
	}
	b.MarkInput(vs[0])
	b.MarkOutput(vs[3])
	g := b.Freeze()
	sub := SubstituteEdges(g, 4, 4, false)

	rate := func(gr *graph.Graph) float64 {
		inst, sc := fault.NewInstance(gr), fault.NewScratch(gr)
		fails := 0
		const trials = 500
		for i := 0; i < trials; i++ {
			inst.Reinject(fault.Symmetric(0.05), rng.Stream(88, uint64(i)))
			if !inst.SurvivesBasicChecksWith(sc) {
				fails++
			}
		}
		return float64(fails) / trials
	}
	plain, amplified := rate(g), rate(sub)
	if amplified >= plain/2 {
		t.Fatalf("substitution did not amplify: plain fail %v, substituted fail %v", plain, amplified)
	}
}

func TestBuildIntoPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BuildInto(0,5) did not panic")
		}
	}()
	BuildInto(graph.NewBuilder(0), 0, 5, false)
}

// EdgeCount returns the number of switches the grid contributes.
func (g *Grid) EdgeCount() int {
	per := 2*g.L - 1
	if g.Cyclic {
		per = 2 * g.L
	}
	return per * (g.W - 1)
}
