package butterfly

import (
	"fmt"
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

func TestStructure(t *testing.T) {
	nw, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N != 8 || nw.Columns != 4 {
		t.Fatalf("N=%d Columns=%d", nw.N, nw.Columns)
	}
	if nw.G.NumEdges() != 3*16 {
		t.Fatalf("edges = %d", nw.G.NumEdges())
	}
	if err := nw.G.Validate(); err != nil {
		t.Fatal(err)
	}
	d, _ := nw.G.Depth()
	if d != 3 {
		t.Fatalf("depth = %d", d)
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestUniquePathValid(t *testing.T) {
	nw, _ := New(4)
	for in := 0; in < nw.N; in += 3 {
		for out := 0; out < nw.N; out += 5 {
			path := nw.UniquePath(in, out)
			if path[0] != in || path[len(path)-1] != out {
				t.Fatalf("endpoints wrong for %d->%d: %v", in, out, path)
			}
			for tr := 0; tr < nw.K; tr++ {
				bit := 1 << uint(nw.K-1-tr)
				from, to := path[tr], path[tr+1]
				if to != from && to != from^bit {
					t.Fatalf("illegal transition %d->%d at %d", from, to, tr)
				}
			}
		}
	}
}

func TestUniquePathIsUnique(t *testing.T) {
	// Count directed paths between a terminal pair by flow:
	// the butterfly must have exactly one (it's a connector, not more).
	nw, _ := New(3)
	in := nw.G.Inputs()[2]
	out := nw.G.Outputs()[5]
	paths := countPaths(nw.G, in, out)
	if paths != 1 {
		t.Fatalf("found %d paths between a butterfly pair, want 1", paths)
	}
}

// countPaths counts directed in→out paths by DP over the DAG's level
// order.
func countPaths(g *graph.Graph, src, dst int32) int {
	lv, err := g.Levels()
	if err != nil {
		panic(err)
	}
	cnt := make([]int, g.NumVertices())
	cnt[src] = 1
	for p := range cnt {
		v := lv.At(int32(p))
		if cnt[v] == 0 {
			continue
		}
		for _, e := range g.OutEdges(v) {
			cnt[g.EdgeTo(e)] += cnt[v]
		}
	}
	return cnt[dst]
}

func TestSingleFaultDisconnectsPair(t *testing.T) {
	// Opening any switch on the unique path must isolate the pair — the
	// defining fragility of the butterfly.
	nw, _ := New(3)
	path := nw.UniquePath(2, 6)
	vs := nw.PathVertices(path)
	inst := fault.NewInstance(nw.G)
	// Find the switch between the first two path vertices and open it.
	var target int32 = -1
	for _, e := range nw.G.OutEdges(vs[0]) {
		if nw.G.EdgeTo(e) == vs[1] {
			target = e
		}
	}
	if target < 0 {
		t.Fatal("path edge missing")
	}
	inst.SetState(target, fault.Open)
	// Opening the first switch of input 2's unique path disconnects it from
	// every output behind that subtree; IsolatedPair must report input 2.
	in, out := inst.IsolatedPair()
	if in != vs[0] {
		t.Fatalf("expected isolation at input %d, got pair (%d,%d)", vs[0], in, out)
	}
	if out < 0 {
		t.Fatal("no isolated output reported")
	}
}

func TestButterflyFrailerThanBenes(t *testing.T) {
	// At equal n and ε the butterfly (unique paths) must fail at least as
	// often as networks with path diversity. Here: failure rate is high at
	// modest ε.
	nw, _ := New(5)
	inst, sc := fault.NewInstance(nw.G), fault.NewScratch(nw.G)
	fails := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		inst.Reinject(fault.Symmetric(0.03), rng.Stream(7, uint64(i)))
		if !inst.SurvivesBasicChecksWith(sc) {
			fails++
		}
	}
	if fails < trials/4 {
		t.Fatalf("butterfly n=32 at ε=0.03 failed only %d/%d", fails, trials)
	}
}

func TestWirePanics(t *testing.T) {
	nw, _ := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	nw.Wire(5, 0)
}

func TestUniquePathPanics(t *testing.T) {
	nw, _ := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	nw.UniquePath(0, 99)
}

// UniquePath returns the single wire path from input `in` to output `out`:
// at transition t the path adopts bit k−1−t of the destination.
func (nw *Network) UniquePath(in, out int) []int {
	if in < 0 || in >= nw.N || out < 0 || out >= nw.N {
		panic("butterfly: terminal out of range")
	}
	path := make([]int, nw.Columns)
	path[0] = in
	w := in
	for t := 0; t < nw.K; t++ {
		bit := uint(nw.K - 1 - t)
		w = w&^(1<<bit) | out&(1<<bit)
		path[t+1] = w
	}
	return path
}

// PathVertices converts a wire path to graph vertex IDs.
func (nw *Network) PathVertices(path []int) []int32 {
	vs := make([]int32, len(path))
	for c, w := range path {
		vs[c] = nw.Wire(c, w)
	}
	return vs
}

// Wire returns the vertex of wire w at column c.
func (nw *Network) Wire(c, w int) int32 {
	if c < 0 || c >= nw.Columns || w < 0 || w >= nw.N {
		panic(fmt.Sprintf("butterfly: Wire(%d,%d) out of range", c, w))
	}
	return int32(c*nw.N + w)
}
