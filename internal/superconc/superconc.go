// Package superconc implements n-superconcentrators: networks in which,
// for every r ≤ n, every set of r inputs can be joined to every set of r
// outputs by r vertex-disjoint paths [AHU].
//
// Valiant [V] showed O(n)-size superconcentrators exist; the explicit
// recursive construction here follows the Pippenger/Gabber–Galil scheme:
//
//	S(n) = n inputs ∥ n outputs
//	     + a perfect matching input_i → output_i              (n switches)
//	     + a concentrator C from the n inputs into ⌈3n/4⌉ hubs (d·n switches)
//	     + a recursive S(⌈3n/4⌉) on the hubs
//	     + the reverse concentrator from S(⌈3n/4⌉) to outputs (d·n switches)
//
// where C is a bipartite graph in which every set of k ≤ ⌈n/2⌉ inputs has
// at least k distinct hub neighbors (a Hall condition). The hub side being
// 3n/4 — strictly more than the n/2 that must concentrate — is what lets
// constant-degree random bipartite graphs satisfy Hall with the slack
// needed at small sizes; with a hub side of exactly n/2 the condition at
// k = n/2 would demand full coverage, which constant degree cannot give.
// Any r inputs route as follows: those whose matching partner output is
// chosen go direct, and the rest (at most min(r, n−r) ≤ n/2 of them)
// Hall-match into distinct hubs and recurse.
//
// Superconcentrators are the weakest class in the paper's hierarchy
// (nonblocking ⊂ rearrangeable ⊂ superconcentrator), and Theorem 1's lower
// bound is proved against them, which makes it bind for all three.
package superconc

import (
	"fmt"
	"math/bits"

	"ftcsn/internal/graph"
	"ftcsn/internal/maxflow"
	"ftcsn/internal/rng"
)

// BaseSize is the recursion cutoff: at or below this size a complete
// bipartite crossbar (trivially a superconcentrator) is used.
const BaseSize = 8

// Network is a materialized superconcentrator.
type Network struct {
	N int
	D int // concentrator degree
	G *graph.Graph
}

// New builds an n-superconcentrator for any n ≥ 1, with concentrator
// degree d (d ≥ 3 recommended) and randomness from seed. It returns an
// error when no concentrator candidate passes the Hall check, which a
// small d makes likely.
func New(n, d int, seed uint64) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("superconc: n=%d must be positive", n)
	}
	if d < 2 {
		return nil, fmt.Errorf("superconc: degree d=%d too small", d)
	}
	r := rng.New(seed)
	b := graph.NewBuilder((2*d + 2) * n)
	ins := b.AddVertices(n)
	outs := b.AddVertices(n)
	inList := make([]int32, n)
	outList := make([]int32, n)
	for i := 0; i < n; i++ {
		inList[i] = ins + int32(i)
		outList[i] = outs + int32(i)
		b.MarkInput(inList[i])
		b.MarkOutput(outList[i])
	}
	if err := build(b, inList, outList, d, r); err != nil {
		return nil, err
	}
	return &Network{N: n, D: d, G: b.Freeze()}, nil
}

// build wires a superconcentrator between the given input and output
// vertex lists (recursive).
func build(b *graph.Builder, ins, outs []int32, d int, r *rng.RNG) error {
	n := len(ins)
	if n <= BaseSize {
		for _, u := range ins {
			for _, v := range outs {
				b.AddEdge(u, v)
			}
		}
		return nil
	}
	// Perfect matching ins[i] → outs[i].
	for i := range ins {
		b.AddEdge(ins[i], outs[i])
	}
	hubs := (3*n + 3) / 4
	hubIn := b.AddVertices(hubs)
	hubOut := b.AddVertices(hubs)
	subIns := make([]int32, hubs)
	subOuts := make([]int32, hubs)
	for i := 0; i < hubs; i++ {
		subIns[i] = hubIn + int32(i)
		subOuts[i] = hubOut + int32(i)
	}
	// Forward concentrator: every input gets d switches into the hubs.
	fw, err := concentrator(n, hubs, d, r)
	if err != nil {
		return err
	}
	for i, targets := range fw {
		for _, h := range targets {
			b.AddEdge(ins[i], subIns[h])
		}
	}
	if err := build(b, subIns, subOuts, d, r); err != nil {
		return err
	}
	// Reverse concentrator: hubs back to the n outputs (mirror image).
	bw, err := concentrator(n, hubs, d, r)
	if err != nil {
		return err
	}
	for o, sources := range bw {
		for _, h := range sources {
			b.AddEdge(subOuts[h], outs[o])
		}
	}
	return nil
}

// hallRetries bounds the Las-Vegas resampling of a concentrator candidate.
const hallRetries = 200

// hallExactLimit is the largest n for which the Hall condition is checked
// exactly by subset enumeration (2^n subsets).
const hallExactLimit = 20

// concentrator returns, for each of n left vertices, d hub indices in
// [0,hubs), built from d random balanced assignments. The recursion needs
// the Hall condition — every set of k ≤ ⌈n/2⌉ left vertices must see at
// least k distinct hubs — which a random candidate can violate at small n,
// so candidates are verified (exactly for n ≤ hallExactLimit,
// adversarially+sampled above) and resampled until one passes: a Las Vegas
// construction in the spirit of Bassalygo–Pinsker. After hallRetries
// failed candidates it gives up with an error.
func concentrator(n, hubs, d int, r *rng.RNG) ([][]int32, error) {
	need := (n + 1) / 2
	for attempt := 0; attempt < hallRetries; attempt++ {
		cand := make([][]int32, n)
		for k := 0; k < d; k++ {
			perm := r.Perm(n)
			for pos, left := range perm {
				cand[left] = append(cand[left], int32(pos%hubs))
			}
		}
		if hallOK(cand, n, hubs, need, r) {
			return cand, nil
		}
	}
	return nil, fmt.Errorf("superconc: no Hall concentrator found for n=%d hubs=%d d=%d after %d attempts; increase d", n, hubs, d, hallRetries)
}

// hallOK verifies the Hall condition for subsets of size ≤ maxK.
func hallOK(cand [][]int32, n, hubs, maxK int, r *rng.RNG) bool {
	if hubs > 64 {
		// Large instances: bitmask words don't fit; use the sampled path.
		return hallSampled(cand, n, hubs, maxK, r)
	}
	neighborMask := make([]uint64, n)
	for i, hs := range cand {
		for _, h := range hs {
			neighborMask[i] |= 1 << uint(h)
		}
	}
	if n <= hallExactLimit {
		// Exact: enumerate every subset of size ≤ maxK.
		for s := uint(1); s < 1<<uint(n); s++ {
			size := popcount(uint64(s))
			if size > maxK {
				continue
			}
			var union uint64
			rest := s
			for rest != 0 {
				i := trailingZeros(rest)
				rest &^= 1 << uint(i)
				union |= neighborMask[i]
			}
			if popcount(union) < size {
				return false
			}
		}
		return true
	}
	return hallSampledMask(neighborMask, n, maxK, r)
}

// hallSampledMask probes the Hall condition with greedy adversarial seeds
// and random subsets using precomputed neighbor masks.
func hallSampledMask(mask []uint64, n, maxK int, r *rng.RNG) bool {
	// Greedy adversary: grow a set adding the vertex contributing the
	// fewest new hubs, from several random seeds.
	for seed := 0; seed < 8; seed++ {
		inSet := make([]bool, n)
		var union uint64
		v0 := r.Intn(n)
		inSet[v0] = true
		union |= mask[v0]
		size := 1
		for size < maxK {
			best, bestNew := -1, 65
			for i := 0; i < n; i++ {
				if inSet[i] {
					continue
				}
				nw := popcount(mask[i] &^ union)
				if nw < bestNew {
					best, bestNew = i, nw
				}
			}
			inSet[best] = true
			union |= mask[best]
			size++
			if popcount(union) < size {
				return false
			}
		}
	}
	// Random subsets near the critical size k = maxK.
	for probe := 0; probe < 200; probe++ {
		k := maxK - r.Intn(3)
		if k < 1 {
			k = 1
		}
		var union uint64
		for _, i := range r.Sample(n, k) {
			union |= mask[i]
		}
		if popcount(union) < k {
			return false
		}
	}
	return true
}

// hallSampled is hallSampledMask for hubs > 64, using bool slices.
func hallSampled(cand [][]int32, n, hubs, maxK int, r *rng.RNG) bool {
	cover := make([]bool, hubs)
	count := func(set []int) int {
		for i := range cover {
			cover[i] = false
		}
		c := 0
		for _, i := range set {
			for _, h := range cand[i] {
				if !cover[h] {
					cover[h] = true
					c++
				}
			}
		}
		return c
	}
	for probe := 0; probe < 300; probe++ {
		k := 1 + r.Intn(maxK)
		if probe < 100 {
			k = maxK - r.Intn(3)
			if k < 1 {
				k = 1
			}
		}
		set := r.Sample(n, k)
		if count(set) < k {
			return false
		}
	}
	return true
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

func trailingZeros(x uint) int { return bits.TrailingZeros(x) }

// VerifyExhaustive checks the superconcentrator property exactly for all
// r-subset pairs with r ≤ maxR via max-flow. Exponential in n; callers
// should keep n ≤ 8 or so.
func (nw *Network) VerifyExhaustive(maxR int) error {
	n := nw.N
	ins := nw.G.Inputs()
	outs := nw.G.Outputs()
	var inSet, outSet []int32
	var rec func(pool []int32, start, need int, chosen []int32, fill func([]int32) error) error
	rec = func(pool []int32, start, need int, chosen []int32, fill func([]int32) error) error {
		if need == 0 {
			return fill(chosen)
		}
		for i := start; i <= len(pool)-need; i++ {
			if err := rec(pool, i+1, need-1, append(chosen, pool[i]), fill); err != nil {
				return err
			}
		}
		return nil
	}
	for r := 1; r <= maxR && r <= n; r++ {
		err := rec(ins, 0, r, nil, func(chosenIn []int32) error {
			inSet = append(inSet[:0], chosenIn...)
			return rec(outs, 0, r, nil, func(chosenOut []int32) error {
				outSet = append(outSet[:0], chosenOut...)
				flow := maxflow.VertexDisjointPaths(nw.G, inSet, outSet)
				if flow < r {
					return fmt.Errorf("superconc: r=%d: inputs %v outputs %v get only %d disjoint paths", r, inSet, outSet, flow)
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// VerifySampled checks the property on `samples` uniformly random
// (r, input-set, output-set) triples and returns the number of violations.
func (nw *Network) VerifySampled(samples int, r *rng.RNG) (violations int) {
	ins := nw.G.Inputs()
	outs := nw.G.Outputs()
	for s := 0; s < samples; s++ {
		k := 1 + r.Intn(nw.N)
		inIdx := r.Sample(nw.N, k)
		outIdx := r.Sample(nw.N, k)
		inSet := make([]int32, k)
		outSet := make([]int32, k)
		for i, v := range inIdx {
			inSet[i] = ins[v]
		}
		for i, v := range outIdx {
			outSet[i] = outs[v]
		}
		if maxflow.VertexDisjointPaths(nw.G, inSet, outSet) < k {
			violations++
		}
	}
	return violations
}
