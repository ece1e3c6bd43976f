package clos

import (
	"fmt"
	"math"

	"ftcsn/internal/graph"
)

// Recursive builds a multi-stage strictly nonblocking network by recursing
// Clos's construction: a 3-stage C(n₀, 2n₀−1, r) whose middle crossbars
// are themselves recursive Clos networks, until they are small enough to
// realize directly. With branching factor n₀ fixed, depth grows by 2 per
// level and size by a ≈(2−1/n₀) factor per level — the classic
// depth-vs-size frontier between the crossbar (depth 1, n² switches) and
// Beneš-style logarithmic networks, and the skeleton that Pippenger's
// recursive nonblocking construction (the paper's §6 base) refines with
// expanders.
//
// Returns a network with n = n₀^levels terminals per side.
type RecursiveNetwork struct {
	N0     int // branching (input crossbar width)
	Levels int
	N      int
	G      *graph.Graph
}

// NewRecursive builds the recursive strictly nonblocking Clos network with
// the given branching and recursion depth. levels = 1 yields the n₀×n₀
// crossbar.
func NewRecursive(n0, levels int) (*RecursiveNetwork, error) {
	if n0 < 2 {
		return nil, fmt.Errorf("clos: recursive branching n0=%d too small", n0)
	}
	if levels < 1 || math.Pow(float64(n0), float64(levels)) > 1<<16 {
		return nil, fmt.Errorf("clos: levels=%d out of range for n0=%d", levels, n0)
	}
	n := 1
	for i := 0; i < levels; i++ {
		n *= n0
	}
	b := graph.NewBuilder(8 * n * levels * n0)
	ins := make([]int32, n)
	outs := make([]int32, n)
	for i := 0; i < n; i++ {
		ins[i] = b.AddVertex()
	}
	for i := 0; i < n; i++ {
		outs[i] = b.AddVertex()
	}
	for i := 0; i < n; i++ {
		b.MarkInput(ins[i])
		b.MarkOutput(outs[i])
	}
	buildRecursive(b, ins, outs, n0)
	g := b.Freeze()
	return &RecursiveNetwork{N0: n0, Levels: levels, N: n, G: g}, nil
}

// buildRecursive wires a strictly nonblocking network between ins and outs
// (equal length) using the Clos recursion with m = 2n₀−1 middles.
func buildRecursive(b *graph.Builder, ins, outs []int32, n0 int) {
	n := len(ins)
	if n <= n0 {
		// Crossbar base case.
		for _, u := range ins {
			for _, v := range outs {
				b.AddEdge(u, v)
			}
		}
		return
	}
	r := n / n0
	m := 2*n0 - 1
	// First-stage links: crossbar g exposes m outgoing links; third-stage
	// links mirror them.
	l1 := make([][]int32, r) // l1[g][j]
	l3 := make([][]int32, r)
	for g := 0; g < r; g++ {
		l1[g] = make([]int32, m)
		l3[g] = make([]int32, m)
		for j := 0; j < m; j++ {
			l1[g][j] = b.AddVertex()
			l3[g][j] = b.AddVertex()
		}
		for i := 0; i < n0; i++ {
			for j := 0; j < m; j++ {
				b.AddEdge(ins[g*n0+i], l1[g][j])
				b.AddEdge(l3[g][j], outs[g*n0+i])
			}
		}
	}
	// Middle "crossbars" j are recursive networks on r terminals.
	for j := 0; j < m; j++ {
		midIns := make([]int32, r)
		midOuts := make([]int32, r)
		for g := 0; g < r; g++ {
			midIns[g] = l1[g][j]
			midOuts[g] = l3[g][j]
		}
		buildRecursive(b, midIns, midOuts, n0)
	}
}

// Depth returns the switch depth (2·levels − 1 crossbar stages... computed
// from the graph for truth).
func (nw *RecursiveNetwork) Depth() int {
	d, err := nw.G.Depth()
	if err != nil {
		return -1
	}
	return d
}

// Size returns the number of switches.
func (nw *RecursiveNetwork) Size() int { return nw.G.NumEdges() }
