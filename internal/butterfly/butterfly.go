// Package butterfly implements the k-dimensional butterfly network — the
// unique-path baseline of the experiments.
//
// The butterfly on n = 2^k terminals has k+1 columns of n wires; transition
// t pairs wires differing in bit k−1−t. Between any input and output there
// is exactly ONE directed path, so the network is merely a connector (it
// can route any single request but is neither rearrangeable nor
// nonblocking), and a single switch failure on that path disconnects the
// pair: under the random failure model its survival probability decays
// fastest of all baselines. Leighton & Maggs's multibutterfly [LM]
// (package multibutterfly) exists precisely to fix this with expander
// splitters.
package butterfly

import (
	"fmt"

	"ftcsn/internal/graph"
)

// Network is a materialized butterfly on n = 2^k terminals.
type Network struct {
	K       int
	N       int
	Columns int // k+1
	G       *graph.Graph
}

// New builds the butterfly for n = 2^k.
func New(k int) (*Network, error) {
	if k < 1 || k > 20 {
		return nil, fmt.Errorf("butterfly: k=%d out of range [1,20]", k)
	}
	n := 1 << uint(k)
	cols := k + 1
	b := graph.NewBuilder(k * 2 * n)
	b.AddVertices(cols * n)
	at := func(c, w int) int32 { return int32(c*n + w) }
	for t := 0; t < k; t++ {
		bit := k - 1 - t
		for w := 0; w < n; w++ {
			b.AddEdge(at(t, w), at(t+1, w))
			b.AddEdge(at(t, w), at(t+1, w^(1<<uint(bit))))
		}
	}
	for w := 0; w < n; w++ {
		b.MarkInput(at(0, w))
		b.MarkOutput(at(cols-1, w))
	}
	return &Network{K: k, N: n, Columns: cols, G: b.Freeze()}, nil
}
