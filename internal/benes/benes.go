// Package benes implements the Beneš rearrangeable network [B] and its
// classic looping routing algorithm.
//
// The Beneš network on n = 2^k terminals is the Θ(n log n)-size,
// Θ(log n)-depth rearrangeable network whose size Shannon [S] proved
// optimal in the fault-free world. Under the random switch failure model
// it is the principal baseline of experiment E8: because its terminals
// have constant degree, a single input's two switches both fail with
// probability ≥ ε², so some terminal is isolated with probability → 1 as
// n → ∞, and no amount of rearrangement can help. Theorem 1 of Pippenger
// & Lin turns this observation into the Ω(n (log n)²) lower bound that
// separates fault-tolerant networks from Beneš.
//
// In the paper's graph model a 2×2 crossbar is four switches (edges)
// between link vertices (wires). The network has 2k columns of n wires and
// 2k−1 transitions; transition t pairs wires differing in bit k−1−t for
// t < k and bit t−k+1 for t ≥ k (a butterfly followed by its mirror,
// sharing the middle transition).
package benes

import (
	"fmt"

	"ftcsn/internal/graph"
)

// Network is a materialized Beneš network on n = 2^k terminals.
type Network struct {
	K       int // log₂ n
	N       int
	Columns int // 2k
	G       *graph.Graph
}

// TransitionBit returns the wire bit paired by transition t (0 ≤ t ≤ 2k−2).
func TransitionBit(k, t int) int {
	if t < k {
		return k - 1 - t
	}
	return t - k + 1
}

// New builds the Beneš network for n = 2^k, k ≥ 1.
func New(k int) (*Network, error) {
	if k < 1 || k > 20 {
		return nil, fmt.Errorf("benes: k=%d out of range [1,20]", k)
	}
	n := 1 << uint(k)
	columns := 2 * k
	b := graph.NewBuilder((columns - 1) * 2 * n)
	b.AddVertices(columns * n)
	at := func(c, w int) int32 { return int32(c*n + w) }
	for t := 0; t < columns-1; t++ {
		bit := TransitionBit(k, t)
		for w := 0; w < n; w++ {
			b.AddEdge(at(t, w), at(t+1, w))
			b.AddEdge(at(t, w), at(t+1, w^(1<<uint(bit))))
		}
	}
	for w := 0; w < n; w++ {
		b.MarkInput(at(0, w))
		b.MarkOutput(at(columns-1, w))
	}
	return &Network{K: k, N: n, Columns: columns, G: b.Freeze()}, nil
}

// circuit is one request inside the looping recursion, with wire indices
// local to the current subnetwork.
type circuit struct {
	id      int // global input index
	in, out int // local wire indices at the subnetwork's boundary columns
}

// RoutePermutation runs the looping algorithm and returns, for each input
// i, the sequence of wire indices its circuit follows through all 2k
// columns: paths[i][c] is the wire at column c, with paths[i][0] = i and
// paths[i][2k−1] = perm[i]. The paths are pairwise wire-disjoint in every
// column — the rearrangeability witness.
func (nw *Network) RoutePermutation(perm []int) ([][]int, error) {
	if len(perm) != nw.N {
		return nil, fmt.Errorf("benes: permutation length %d, want %d", len(perm), nw.N)
	}
	seen := make([]bool, nw.N)
	for _, p := range perm {
		if p < 0 || p >= nw.N || seen[p] {
			return nil, fmt.Errorf("benes: not a permutation")
		}
		seen[p] = true
	}
	paths := make([][]int, nw.N)
	circuits := make([]circuit, nw.N)
	for i := range paths {
		paths[i] = make([]int, nw.Columns)
		paths[i][0] = i
		paths[i][nw.Columns-1] = perm[i]
		circuits[i] = circuit{id: i, in: i, out: perm[i]}
	}
	nw.loop(paths, nw.K, 0, circuits)
	return paths, nil
}

// loop routes the level-j subnetwork with wire prefix `prefix` (the high
// K−j bits shared by all its wires). It writes columns K−j+1 and
// 2K−2−(K−j) of each circuit and recurses on the two halves.
func (nw *Network) loop(paths [][]int, j, prefix int, circuits []circuit) {
	if j <= 1 {
		// 2×2 middle switch: boundary columns are adjacent; nothing to set.
		return
	}
	m := 1 << uint(j)
	c := nw.K - j            // left boundary column of this subnetwork
	cR := nw.Columns - 1 - c // right boundary column
	top := 1 << uint(j-1)    // local top bit: partner mask at both boundaries
	low := top - 1           // low-bit mask: the sub-subnetwork index
	inIdx := make([]int, m)  // circuit index occupying local in-wire u
	outIdx := make([]int, m) // circuit index occupying local out-wire v
	for x := range circuits {
		inIdx[circuits[x].in] = x
		outIdx[circuits[x].out] = x
	}
	// 2-color by walking the alternating cycles of the two partner
	// matchings: partners at a switch must take different halves.
	color := make([]int8, len(circuits))
	for i := range color {
		color[i] = -1
	}
	for start := range circuits {
		if color[start] >= 0 {
			continue
		}
		x, col := start, int8(0)
		for color[x] < 0 {
			color[x] = col
			// Output partner must take the other color.
			y := outIdx[circuits[x].out^top]
			if color[y] < 0 {
				color[y] = 1 - col
			}
			// Input partner of y must differ from y, i.e. equal col ...
			// continue the cycle from y's input partner.
			x = inIdx[circuits[y].in^top]
			col = 1 - color[y]
		}
	}
	var sub [2][]circuit
	for x := range circuits {
		cc := circuits[x]
		b := int(color[x])
		nextIn := cc.in&low | b<<uint(j-1)
		prevOut := cc.out&low | b<<uint(j-1)
		paths[cc.id][c+1] = prefix<<uint(j) | nextIn
		paths[cc.id][cR-1] = prefix<<uint(j) | prevOut
		sub[b] = append(sub[b], circuit{id: cc.id, in: cc.in & low, out: cc.out & low})
	}
	nw.loop(paths, j-1, prefix<<1|0, sub[0])
	nw.loop(paths, j-1, prefix<<1|1, sub[1])
}

// VerifyRouting checks that paths is a valid disjoint routing of perm:
// every column's occupied wires are distinct, consecutive wires are joined
// by a switch of the network, and endpoints match the permutation.
func (nw *Network) VerifyRouting(perm []int, paths [][]int) error {
	if len(paths) != nw.N {
		return fmt.Errorf("benes: %d paths for %d inputs", len(paths), nw.N)
	}
	for c := 0; c < nw.Columns; c++ {
		used := make([]bool, nw.N)
		for i := range paths {
			w := paths[i][c]
			if w < 0 || w >= nw.N {
				return fmt.Errorf("benes: path %d column %d wire %d out of range", i, c, w)
			}
			if used[w] {
				return fmt.Errorf("benes: column %d wire %d used twice", c, w)
			}
			used[w] = true
		}
	}
	for i := range paths {
		if paths[i][0] != i || paths[i][nw.Columns-1] != perm[i] {
			return fmt.Errorf("benes: path %d endpoints wrong", i)
		}
		for t := 0; t < nw.Columns-1; t++ {
			from, to := paths[i][t], paths[i][t+1]
			bit := 1 << uint(TransitionBit(nw.K, t))
			if to != from && to != from^bit {
				return fmt.Errorf("benes: path %d transition %d: %d->%d not a switch", i, t, from, to)
			}
		}
	}
	return nil
}
