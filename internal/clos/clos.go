// Package clos implements three-stage Clos networks [Cl], the original
// strictly nonblocking switching fabric that the paper's Network 𝒩
// generalizes recursively.
//
// A Clos network C(n₀, m, r) has N = r·n₀ terminals on each side: r input
// crossbars of size n₀×m, m middle crossbars of size r×r, and r output
// crossbars of size m×n₀. Clos's 1953 theorem: the network is strictly
// nonblocking iff m ≥ 2n₀−1, and rearrangeable iff m ≥ n₀ (Slepian–
// Duguid). In the paper's graph model a crossbar is a complete bipartite
// switch block between link vertices.
package clos

import (
	"fmt"

	"ftcsn/internal/graph"
)

// Network is a materialized three-stage Clos network.
type Network struct {
	N0, M, R int
	N        int // terminals per side: R·N0
	G        *graph.Graph
}

// New builds C(n₀, m, r).
func New(n0, m, r int) (*Network, error) {
	if n0 < 1 || m < 1 || r < 1 {
		return nil, fmt.Errorf("clos: invalid parameters n0=%d m=%d r=%d", n0, m, r)
	}
	n := n0 * r
	// Vertices: n inputs, r·m first-stage links, m·r second-stage links,
	// n outputs.
	b := graph.NewBuilder(2*n+2*r*m, n*m+m*r*r+m*n)
	inputs := b.AddVertices(0, n)
	l1 := b.AddVertices(1, r*m) // link (g,j): input crossbar g → middle j
	l2 := b.AddVertices(2, m*r) // link (j,h): middle j → output crossbar h
	outputs := b.AddVertices(3, n)
	for i := 0; i < n; i++ {
		b.MarkInput(inputs + int32(i))
		b.MarkOutput(outputs + int32(i))
	}
	// Input crossbar g joins its n₀ inputs to its m outgoing links.
	for i := 0; i < n; i++ {
		g := i / n0
		for j := 0; j < m; j++ {
			b.AddEdge(inputs+int32(i), l1+int32(g*m+j))
		}
	}
	// Middle crossbar j joins link (g,j) to link (j,h) for all g,h.
	for g := 0; g < r; g++ {
		for j := 0; j < m; j++ {
			for h := 0; h < r; h++ {
				b.AddEdge(l1+int32(g*m+j), l2+int32(j*r+h))
			}
		}
	}
	// Output crossbar h joins its m incoming links to its n₀ outputs.
	for o := 0; o < n; o++ {
		h := o / n0
		for j := 0; j < m; j++ {
			b.AddEdge(l2+int32(j*r+h), outputs+int32(o))
		}
	}
	return &Network{N0: n0, M: m, R: r, N: n, G: b.Freeze()}, nil
}

// NewStrict builds the minimal strictly nonblocking Clos network for
// N = r·n₀ terminals: m = 2n₀−1.
func NewStrict(n0, r int) (*Network, error) { return New(n0, 2*n0-1, r) }

// IsStrictSenseNonblocking reports Clos's criterion m ≥ 2n₀−1.
func (nw *Network) IsStrictSenseNonblocking() bool { return nw.M >= 2*nw.N0-1 }

// Size returns the switch count: N·m + m·r² + m·N.
func (nw *Network) Size() int { return nw.G.NumEdges() }
