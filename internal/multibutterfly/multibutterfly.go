// Package multibutterfly implements the multibutterfly network of
// Upfal [U] and Leighton & Maggs [LM] — "expanders might be practical" —
// the strongest Θ(n log n) baseline in the experiments.
//
// A multibutterfly replaces each butterfly splitter with an expander-based
// splitter of multiplicity d: at stage s the wires are partitioned into
// blocks of size n/2^s, and each wire has d switches into the upper half
// and d into the lower half of its block's two sub-blocks at stage s+1.
// Routing toward output j follows any idle switch into the sub-block
// matching j's next address bit; expansion guarantees many alternatives,
// which is what lets Leighton–Maggs route around faults.
//
// The crucial limitation that experiment E8 demonstrates: terminal degree
// is the constant 2d, so at any fixed switch-failure rate ε the
// probability that some input loses all its switches is ≈ n·(2ε)^(2d) → 1
// as n grows. Multibutterflies tolerate *worst-case bounded* fault sets,
// not the paper's random-failure model; only Θ(log n) terminal degree —
// hence Θ(n log²n) size, Network 𝒩 — survives random failures.
package multibutterfly

import (
	"fmt"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// Network is a materialized multibutterfly on n = 2^k terminals.
type Network struct {
	K       int
	N       int
	D       int // splitter multiplicity: 2d switches per wire per stage
	Columns int // k+1
	G       *graph.Graph
}

// New builds a multibutterfly with multiplicity d for n = 2^k.
// The final stage (block size 2) is a plain butterfly exchange when the
// sub-block size drops below d (multiplicity is capped by block size).
func New(k, d int, seed uint64) (*Network, error) {
	if k < 1 || k > 20 {
		return nil, fmt.Errorf("multibutterfly: k=%d out of range [1,20]", k)
	}
	if d < 1 {
		return nil, fmt.Errorf("multibutterfly: d=%d out of range", d)
	}
	n := 1 << uint(k)
	cols := k + 1
	r := rng.New(seed)
	b := graph.NewBuilder(cols*n, cols*2*d*n)
	for c := 0; c < cols; c++ {
		b.AddVertices(int32(c), n)
	}
	at := func(c, w int) int32 { return int32(c*n + w) }
	for t := 0; t < k; t++ {
		blockSize := n >> uint(t)
		half := blockSize / 2
		dd := d
		if dd > half {
			dd = half
		}
		for block := 0; block < n/blockSize; block++ {
			base := block * blockSize
			// Upper sub-block: [base, base+half); lower: [base+half, ...).
			// d random matchings wire the block's wires into each half.
			for _, sub := range [2]int{0, 1} {
				subBase := base + sub*half
				for m := 0; m < dd; m++ {
					perm := r.Perm(blockSize)
					for w := 0; w < blockSize; w++ {
						b.AddEdge(at(t, base+w), at(t+1, subBase+perm[w]%half))
					}
				}
			}
		}
	}
	for w := 0; w < n; w++ {
		b.MarkInput(at(0, w))
		b.MarkOutput(at(cols-1, w))
	}
	return &Network{K: k, N: n, D: d, Columns: cols, G: b.Freeze()}, nil
}
