package graph

// Stress and property tests of the CSR graph substrate over large random
// multigraphs — the foundation every other package trusts.

import (
	"testing"

	"ftcsn/internal/rng"
)

// buildRandomStagedGraph creates a staged DAG with `stages` stages of
// `width` vertices and random forward edges (multi-edges allowed).
func buildRandomStagedGraph(stages, width, edges int, r *rng.RNG) *Graph {
	b := NewBuilder(edges)
	b.AddVertices(stages * width)
	at := func(s, i int) int32 { return int32(s*width + i) }
	for e := 0; e < edges; e++ {
		s := r.Intn(stages - 1)
		b.AddEdge(at(s, r.Intn(width)), at(s+1, r.Intn(width)))
	}
	for i := 0; i < width; i++ {
		b.MarkInput(at(0, i))
		b.MarkOutput(at(stages-1, i))
	}
	return b.Freeze()
}

func TestLargeCSRConsistency(t *testing.T) {
	r := rng.New(0x57)
	g := buildRandomStagedGraph(10, 100, 20000, r)
	// Per-vertex out/in edge lists partition the edge set exactly.
	outSeen := make([]bool, g.NumEdges())
	inSeen := make([]bool, g.NumEdges())
	totalOut, totalIn := 0, 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for _, e := range g.OutEdges(v) {
			if outSeen[e] || g.EdgeFrom(e) != v {
				t.Fatalf("edge %d misfiled in OutEdges(%d)", e, v)
			}
			outSeen[e] = true
			totalOut++
		}
		for _, e := range g.InEdges(v) {
			if inSeen[e] || g.EdgeTo(e) != v {
				t.Fatalf("edge %d misfiled in InEdges(%d)", e, v)
			}
			inSeen[e] = true
			totalIn++
		}
	}
	if totalOut != g.NumEdges() || totalIn != g.NumEdges() {
		t.Fatalf("partition sizes: out=%d in=%d edges=%d", totalOut, totalIn, g.NumEdges())
	}
}

func TestLargeDegreeSums(t *testing.T) {
	r := rng.New(0x58)
	g := buildRandomStagedGraph(6, 50, 5000, r)
	sumOut, sumIn := 0, 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		sumOut += g.OutDegree(v)
		sumIn += g.InDegree(v)
	}
	if sumOut != g.NumEdges() || sumIn != g.NumEdges() {
		t.Fatalf("degree sums %d/%d vs %d edges", sumOut, sumIn, g.NumEdges())
	}
}

func TestLargeTopoAndDepth(t *testing.T) {
	r := rng.New(0x59)
	g := buildRandomStagedGraph(8, 64, 10000, r)
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	level := lv.PerVertex()
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if level[g.EdgeFrom(e)] >= level[g.EdgeTo(e)] {
			t.Fatalf("edge %d does not climb a level", e)
		}
	}
	d, err := g.Depth()
	if err != nil {
		t.Fatal(err)
	}
	// Depth of a staged graph is at most stages−1.
	if d > 7 {
		t.Fatalf("depth %d exceeds stage bound", d)
	}
}

func TestMirrorPreservesDegreesSwapped(t *testing.T) {
	r := rng.New(0x5A)
	g := buildRandomStagedGraph(5, 40, 3000, r)
	m := g.Mirror()
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if g.OutDegree(v) != m.InDegree(v) || g.InDegree(v) != m.OutDegree(v) {
			t.Fatalf("vertex %d degrees not swapped", v)
		}
	}
}

func TestUndirectedDistancesSymmetry(t *testing.T) {
	r := rng.New(0x5B)
	g := buildRandomStagedGraph(4, 20, 400, r)
	// dist(u,v) == dist(v,u) for sampled pairs.
	for trial := 0; trial < 20; trial++ {
		u := int32(r.Intn(g.NumVertices()))
		v := int32(r.Intn(g.NumVertices()))
		du := g.UndirectedDistances(u)
		dv := g.UndirectedDistances(v)
		if du[v] != dv[u] {
			t.Fatalf("asymmetric distance: %d vs %d", du[v], dv[u])
		}
	}
}

func TestReachableFromSubsetOfUndirected(t *testing.T) {
	r := rng.New(0x5C)
	g := buildRandomStagedGraph(5, 30, 900, r)
	src := g.Inputs()[0]
	directed := g.ReachableFrom(src, nil)
	undirected := g.UndirectedDistances(src)
	for v := range directed {
		if directed[v] && undirected[v] < 0 {
			t.Fatalf("vertex %d directed-reachable but not undirected-reachable", v)
		}
	}
}

func BenchmarkFreezeLarge(b *testing.B) {
	r := rng.New(0x5D)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildRandomStagedGraph(10, 200, 100000, r)
	}
}

func BenchmarkBFSLarge(b *testing.B) {
	g := buildRandomStagedGraph(10, 200, 100000, rng.New(0x5E))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ReachableFrom(g.Inputs()[i%200], nil)
	}
}
