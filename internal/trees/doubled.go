package trees

import (
	"fmt"

	"ftcsn/internal/graph"
)

// Network is the doubled-tree connector on n = 2^k terminals: a complete
// binary up-tree from the n leaf inputs to the root, matched by a
// complete binary down-tree from the root to n leaf outputs. It is the
// minimal-size connector (Θ(n) switches) and the degenerate extreme of the
// fault-tolerance spectrum the experiments chart: every input–output pair
// has exactly ONE path, all 2^k·2^k of them through the root, so a single
// switch failure near the root disconnects everything and at most one
// circuit can be live at a time. Lemma 1 works with exactly such trees —
// here the tree is doubled into a routable staged DAG so the zoo can run
// the identical certifier and churn machinery on it.
type Network struct {
	K       int
	N       int
	Columns int // 2k+1 stages: leaves up to the root and back down
	G       *graph.Graph
}

// Doubled builds the doubled-tree connector for n = 2^k.
func Doubled(k int) (*Network, error) {
	if k < 1 || k > 20 {
		return nil, fmt.Errorf("trees: doubled k=%d out of range [1,20]", k)
	}
	n := 1 << uint(k)
	b := graph.NewBuilder(4*n - 4)
	// Up-tree: stage s holds 2^(k−s) vertices; vertex (s,i) is the parent
	// of (s−1,2i) and (s−1,2i+1). Stage k is the root.
	up := make([]int32, k+1)
	for s := 0; s <= k; s++ {
		up[s] = b.AddVertices(n >> uint(s))
	}
	for s := 1; s <= k; s++ {
		for i := int32(0); i < int32(n>>uint(s)); i++ {
			b.AddEdge(up[s-1]+2*i, up[s]+i)
			b.AddEdge(up[s-1]+2*i+1, up[s]+i)
		}
	}
	// Down-tree: stage k+s holds 2^s vertices; vertex (s−1,i) feeds
	// (s,2i) and (s,2i+1). Stage 2k holds the n leaf outputs.
	down := make([]int32, k+1)
	down[0] = up[k] // the root is shared
	for s := 1; s <= k; s++ {
		down[s] = b.AddVertices(1 << uint(s))
	}
	for s := 1; s <= k; s++ {
		for i := int32(0); i < int32(1<<uint(s-1)); i++ {
			b.AddEdge(down[s-1]+i, down[s]+2*i)
			b.AddEdge(down[s-1]+i, down[s]+2*i+1)
		}
	}
	for i := int32(0); i < int32(n); i++ {
		b.MarkInput(up[0] + i)
		b.MarkOutput(down[k] + i)
	}
	return &Network{K: k, N: n, Columns: 2*k + 1, G: b.Freeze()}, nil
}
