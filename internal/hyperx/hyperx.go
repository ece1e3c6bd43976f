// Package hyperx builds DAG-unrolled HyperX networks for circuit
// switching.
//
// A HyperX [Ahn et al.; Camarero et al., "Achieving High-Performance
// Fault-Tolerant Routing in HyperX Interconnection Networks"] places
// switches on an L-dimensional lattice S₁×…×S_L and, in every dimension,
// connects each switch to ALL switches that differ from it in that one
// coordinate — a per-dimension crossbar, giving diameter L with massive
// path diversity, which is what makes the topology attractive for
// fault-tolerant routing.
//
// HyperX is an interconnection (packet) topology; to study it under the
// paper's circuit-switching fault model it is unrolled into an acyclic
// layered form, the standard time-expansion for circuit switching: columns
// 0..Depth each hold one copy of the lattice, and every switch (x, t) is
// joined to its hold successor (x, t+1) and to every one-coordinate
// neighbor (y, t+1). Each lattice point gets one input terminal feeding
// its column-0 copy and one output terminal fed by its column-Depth copy.
// A circuit is then a lattice walk taking at most one hop per time step —
// with Depth ≥ L every input can reach every output.
//
// Terminals are allocated before the columns, so vertex IDs are NOT
// level-sorted (outputs carry the highest level but low IDs): the family
// deliberately exercises the permutation path of the graph.Levels
// contract, where the stage-layered MINs exercise the identity path.
package hyperx

import (
	"fmt"

	"ftcsn/internal/graph"
)

// MaxEdges caps accidental huge instances.
const MaxEdges = 1 << 24

// Network is a materialized DAG-unrolled HyperX.
type Network struct {
	Dims  []int // lattice shape S₁×…×S_L
	Depth int   // number of column transitions (columns 0..Depth)
	N     int   // lattice points per column = terminals per side
	G     *graph.Graph

	colBase []int32 // colBase[t] is the first vertex ID of column t
}

// New builds the unrolled HyperX over the given lattice shape with the
// given number of time steps. Every dimension must be ≥ 2 and depth ≥ 1.
func New(dims []int, depth int) (*Network, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("hyperx: empty lattice shape")
	}
	points := 1
	perHop := 1 // out-degree of one switch: hold + Σ (S_k - 1)
	for _, d := range dims {
		if d < 2 {
			return nil, fmt.Errorf("hyperx: dimension size %d < 2", d)
		}
		points *= d
		perHop += d - 1
	}
	if depth < 1 {
		return nil, fmt.Errorf("hyperx: depth %d < 1", depth)
	}
	edges := 2*points + depth*points*perHop
	if edges > MaxEdges {
		return nil, fmt.Errorf("hyperx: %d switches exceeds MaxEdges=%d", edges, MaxEdges)
	}

	b := graph.NewBuilder(2*points+(depth+1)*points, edges)
	ins := b.AddVertices(graph.NoStage, points)
	outs := b.AddVertices(graph.NoStage, points)
	nw := &Network{
		Dims:    append([]int(nil), dims...),
		Depth:   depth,
		N:       points,
		colBase: make([]int32, depth+1),
	}
	for t := 0; t <= depth; t++ {
		nw.colBase[t] = b.AddVertices(graph.NoStage, points)
	}
	for i := 0; i < points; i++ {
		b.MarkInput(ins + int32(i))
		b.MarkOutput(outs + int32(i))
		b.AddEdge(ins+int32(i), nw.colBase[0]+int32(i))
		b.AddEdge(nw.colBase[depth]+int32(i), outs+int32(i))
	}
	// stride[k] is the rank step of +1 in coordinate k (mixed radix).
	stride := make([]int, len(dims))
	s := 1
	for k := len(dims) - 1; k >= 0; k-- {
		stride[k] = s
		s *= dims[k]
	}
	coord := make([]int, len(dims))
	for t := 0; t < depth; t++ {
		from, to := nw.colBase[t], nw.colBase[t+1]
		for i := range coord {
			coord[i] = 0
		}
		for r := 0; r < points; r++ {
			b.AddEdge(from+int32(r), to+int32(r)) // hold
			for k, ck := range coord {
				base := r - ck*stride[k]
				for v := 0; v < dims[k]; v++ {
					if v != ck {
						b.AddEdge(from+int32(r), to+int32(base+v*stride[k]))
					}
				}
			}
			// Advance the mixed-radix counter alongside the rank.
			for k := len(coord) - 1; k >= 0; k-- {
				coord[k]++
				if coord[k] < dims[k] {
					break
				}
				coord[k] = 0
			}
		}
	}
	nw.G = b.Freeze()
	return nw, nil
}
