// Package circulant builds DAG-unrolled circulant networks for circuit
// switching.
//
// A circulant graph C(n; s₁,…,s_k) places n relays on a ring and joins
// relay i to relays i+s₁, …, i+s_k (mod n). Circulants are the classic
// vertex-transitive fault-tolerant interconnects [cf. "Fault-Tolerant
// Shared-Relay Communication in Circulant Interconnection Networks"]:
// every relay sees the same stride set, so no single relay is special and
// k independent strides give k edge-disjoint ways forward.
//
// As with hyperx, the (cyclic, undirected) interconnect is unrolled into
// the acyclic layered form circuit switching needs: columns 0..Depth each
// hold one copy of the ring, relay (i, t) is joined to its hold successor
// (i, t+1) and to ((i+s) mod n, t+1) for every stride s, ring position i
// gets an input terminal feeding (i, 0) and an output terminal fed by
// (i, Depth). A circuit is a walk that advances by one stride (or holds)
// per time step; reachability of output j from input i is governed by
// which sums of at most Depth strides hit j−i (mod n).
//
// Terminals are allocated before the columns, so — like hyperx and unlike
// the stage-layered MINs — vertex IDs are not level-sorted and the family
// exercises the permutation path of the graph.Levels contract.
package circulant

import (
	"fmt"

	"ftcsn/internal/graph"
)

// MaxEdges caps accidental huge instances.
const MaxEdges = 1 << 24

// Network is a materialized DAG-unrolled circulant.
type Network struct {
	N       int   // relays per column = terminals per side
	Strides []int // distinct strides, each in (0, n)
	Depth   int   // number of column transitions (columns 0..Depth)
	G       *graph.Graph

	colBase []int32 // colBase[t] is the first vertex ID of column t
}

// New builds the unrolled circulant C(n; strides) with the given number of
// time steps. Strides must be distinct and in (0, n); depth ≥ 1.
func New(n int, strides []int, depth int) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("circulant: ring size %d < 2", n)
	}
	if len(strides) == 0 {
		return nil, fmt.Errorf("circulant: empty stride set")
	}
	seen := make(map[int]bool, len(strides))
	for _, s := range strides {
		if s <= 0 || s >= n {
			return nil, fmt.Errorf("circulant: stride %d outside (0, %d)", s, n)
		}
		if seen[s] {
			return nil, fmt.Errorf("circulant: duplicate stride %d", s)
		}
		seen[s] = true
	}
	if depth < 1 {
		return nil, fmt.Errorf("circulant: depth %d < 1", depth)
	}
	edges := 2*n + depth*n*(1+len(strides))
	if edges > MaxEdges {
		return nil, fmt.Errorf("circulant: %d switches exceeds MaxEdges=%d", edges, MaxEdges)
	}

	b := graph.NewBuilder(edges)
	ins := b.AddVertices(n)
	outs := b.AddVertices(n)
	nw := &Network{
		N:       n,
		Strides: append([]int(nil), strides...),
		Depth:   depth,
		colBase: make([]int32, depth+1),
	}
	for t := 0; t <= depth; t++ {
		nw.colBase[t] = b.AddVertices(n)
	}
	for i := 0; i < n; i++ {
		b.MarkInput(ins + int32(i))
		b.MarkOutput(outs + int32(i))
		b.AddEdge(ins+int32(i), nw.colBase[0]+int32(i))
		b.AddEdge(nw.colBase[depth]+int32(i), outs+int32(i))
	}
	for t := 0; t < depth; t++ {
		from, to := nw.colBase[t], nw.colBase[t+1]
		for i := 0; i < n; i++ {
			b.AddEdge(from+int32(i), to+int32(i)) // hold
			for _, s := range nw.Strides {
				b.AddEdge(from+int32(i), to+int32((i+s)%n))
			}
		}
	}
	nw.G = b.Freeze()
	return nw, nil
}
