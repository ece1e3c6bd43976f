package maxflow

import (
	"testing"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

func TestMaxFlowDiamond(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	if f := g.MaxFlow(0, 3); f != 2 {
		t.Fatalf("flow = %d, want 2", f)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 5)
	if f := g.MaxFlow(0, 3); f != 2 {
		t.Fatalf("flow = %d, want 2", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(2, 3, 3)
	if f := g.MaxFlow(0, 3); f != 0 {
		t.Fatalf("flow = %d, want 0", f)
	}
}

func TestMaxFlowSelf(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 1)
	if f := g.MaxFlow(0, 0); f != 0 {
		t.Fatalf("flow s==t = %d", f)
	}
}

func TestMaxFlowParallelEdges(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 1)
	if f := g.MaxFlow(0, 1); f != 3 {
		t.Fatalf("flow = %d, want 3", f)
	}
}

// completeBipartite builds a crossbar a×b as a graph.Graph.
func completeBipartite(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a * b)
	for i := 0; i < a; i++ {
		v := bld.AddVertex()
		bld.MarkInput(v)
	}
	for j := 0; j < b; j++ {
		v := bld.AddVertex()
		bld.MarkOutput(v)
	}
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bld.AddEdge(int32(i), int32(a+j))
		}
	}
	return bld.Freeze()
}

func TestVertexDisjointCrossbar(t *testing.T) {
	g := completeBipartite(4, 4)
	got := VertexDisjointPaths(g, g.Inputs(), g.Outputs())
	if got != 4 {
		t.Fatalf("disjoint paths = %d, want 4", got)
	}
	// Any r-subset to r-subset also saturates.
	got = VertexDisjointPaths(g, g.Inputs()[:2], g.Outputs()[2:])
	if got != 2 {
		t.Fatalf("r=2 disjoint paths = %d", got)
	}
}

func TestVertexDisjointSharedMiddle(t *testing.T) {
	// Two inputs forced through ONE middle vertex: only 1 disjoint path.
	b := graph.NewBuilder(4)
	i0 := b.AddVertex()
	i1 := b.AddVertex()
	m := b.AddVertex()
	o0 := b.AddVertex()
	o1 := b.AddVertex()
	b.AddEdge(i0, m)
	b.AddEdge(i1, m)
	b.AddEdge(m, o0)
	b.AddEdge(m, o1)
	b.MarkInput(i0)
	b.MarkInput(i1)
	b.MarkOutput(o0)
	b.MarkOutput(o1)
	g := b.Freeze()
	if got := VertexDisjointPaths(g, g.Inputs(), g.Outputs()); got != 1 {
		t.Fatalf("disjoint paths = %d, want 1 (middle bottleneck)", got)
	}
}

func TestVertexDisjointAvoiding(t *testing.T) {
	g := completeBipartite(3, 3)
	// Block input 0: only 2 paths remain.
	got := VertexDisjointPathsAvoiding(g, g.Inputs(), g.Outputs(),
		func(v int32) bool { return v != g.Inputs()[0] }, nil)
	if got != 2 {
		t.Fatalf("paths avoiding an input = %d, want 2", got)
	}
	// Block all switches out of input 1 via edge mask: 1 path remains
	// (inputs 0 blocked above is NOT in effect here).
	got = VertexDisjointPathsAvoiding(g, g.Inputs(), g.Outputs(), nil,
		func(e int32) bool { return g.EdgeFrom(e) != g.Inputs()[1] })
	if got != 2 {
		t.Fatalf("paths with input-1 switches cut = %d, want 2", got)
	}
}

func TestPairsRoutableCrossbar(t *testing.T) {
	g := completeBipartite(3, 3)
	// Any permutation routes on a crossbar (direct switches).
	for _, perm := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		v := PermutationRoutable(g, g.Inputs(), g.Outputs(), perm, 1<<16)
		if v != PairingRoutable {
			t.Fatalf("perm %v verdict %v", perm, v)
		}
	}
}

func TestPairsRoutableSharedMiddleImpossible(t *testing.T) {
	// Two pairs forced through one middle vertex: flow=1, pairing version
	// must report impossible.
	b := graph.NewBuilder(4)
	i0 := b.AddVertex()
	i1 := b.AddVertex()
	m := b.AddVertex()
	o0 := b.AddVertex()
	o1 := b.AddVertex()
	b.AddEdge(i0, m)
	b.AddEdge(i1, m)
	b.AddEdge(m, o0)
	b.AddEdge(m, o1)
	b.MarkInput(i0)
	b.MarkInput(i1)
	b.MarkOutput(o0)
	b.MarkOutput(o1)
	g := b.Freeze()
	v := PairsRoutable(g, []int32{i0, i1}, []int32{o0, o1}, 1<<16)
	if v != PairingImpossible {
		t.Fatalf("verdict %v, want impossible", v)
	}
}

func TestPairsRoutableRequiresPairing(t *testing.T) {
	// Set-flow says 2 paths exist; the PAIRING i0→o1, i1→o0 is the only
	// feasible one; i0→o0, i1→o1 is impossible. Construct: i0 reaches only
	// o1's side, i1 only o0's side.
	b := graph.NewBuilder(4)
	i0 := b.AddVertex()
	i1 := b.AddVertex()
	a := b.AddVertex()
	c := b.AddVertex()
	o0 := b.AddVertex()
	o1 := b.AddVertex()
	b.AddEdge(i0, a)
	b.AddEdge(a, o1)
	b.AddEdge(i1, c)
	b.AddEdge(c, o0)
	b.MarkInput(i0)
	b.MarkInput(i1)
	b.MarkOutput(o0)
	b.MarkOutput(o1)
	g := b.Freeze()
	if got := VertexDisjointPaths(g, g.Inputs(), g.Outputs()); got != 2 {
		t.Fatalf("set flow = %d", got)
	}
	if v := PairsRoutable(g, []int32{i0, i1}, []int32{o1, o0}, 1<<16); v != PairingRoutable {
		t.Fatalf("feasible pairing verdict %v", v)
	}
	if v := PairsRoutable(g, []int32{i0, i1}, []int32{o0, o1}, 1<<16); v != PairingImpossible {
		t.Fatalf("infeasible pairing verdict %v", v)
	}
}

func TestPairsRoutableAgreesWithBenesLooping(t *testing.T) {
	// Cross-validation: every permutation the looping algorithm routes
	// must be judged routable by the exact solver.
	bn, err := benesNetwork()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(61)
	for trial := 0; trial < 10; trial++ {
		perm := r.Perm(8)
		v := PermutationRoutable(bn, bn.Inputs(), bn.Outputs(), perm, 1<<22)
		if v != PairingRoutable {
			t.Fatalf("perm %v verdict %v on Beneš", perm, v)
		}
	}
}

// benesNetwork builds an n=8 Beneš topology locally (avoiding an import
// cycle with package benes, which does not import maxflow but keeps the
// dependency graph shallow).
func benesNetwork() (*graph.Graph, error) {
	k, n := 3, 8
	cols := 2 * k
	b := graph.NewBuilder((cols - 1) * 2 * n)
	b.AddVertices(cols * n)
	at := func(c, w int) int32 { return int32(c*n + w) }
	bit := func(t int) int {
		if t < k {
			return k - 1 - t
		}
		return t - k + 1
	}
	for t := 0; t < cols-1; t++ {
		for w := 0; w < n; w++ {
			b.AddEdge(at(t, w), at(t+1, w))
			b.AddEdge(at(t, w), at(t+1, w^(1<<uint(bit(t)))))
		}
	}
	for w := 0; w < n; w++ {
		b.MarkInput(at(0, w))
		b.MarkOutput(at(cols-1, w))
	}
	return b.Freeze(), nil
}

func TestFlowRandomizedAgainstEdgeCount(t *testing.T) {
	// Sanity: on layered random DAGs the disjoint-path count never exceeds
	// min(sources, sinks) and is monotone under edge addition.
	r := rng.New(41)
	for trial := 0; trial < 20; trial++ {
		a := 2 + r.Intn(4)
		bCount := 2 + r.Intn(4)
		b := graph.NewBuilder(a * bCount)
		for i := 0; i < a; i++ {
			b.MarkInput(b.AddVertex())
		}
		for j := 0; j < bCount; j++ {
			b.MarkOutput(b.AddVertex())
		}
		prev := -1
		edges := 0
		for e := 0; e < a*bCount; e++ {
			b.AddEdge(int32(r.Intn(a)), int32(a+r.Intn(bCount)))
			edges++
			if edges%3 == 0 {
				g := b.Freeze()
				flow := VertexDisjointPaths(g, g.Inputs(), g.Outputs())
				if flow > a || flow > bCount {
					t.Fatalf("flow %d exceeds terminal count", flow)
				}
				if flow < prev {
					t.Fatalf("flow decreased after adding an edge: %d -> %d", prev, flow)
				}
				prev = flow
				// Rebuild: Freeze consumed the builder.
				nb := graph.NewBuilder(a * bCount)
				for i := 0; i < a; i++ {
					nb.MarkInput(nb.AddVertex())
				}
				for j := 0; j < bCount; j++ {
					nb.MarkOutput(nb.AddVertex())
				}
				for e2 := int32(0); e2 < int32(g.NumEdges()); e2++ {
					nb.AddEdge(g.EdgeFrom(e2), g.EdgeTo(e2))
				}
				b = nb
			}
		}
	}
}
