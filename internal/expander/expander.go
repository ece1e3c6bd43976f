// Package expander builds and certifies the (c,c′,t)-expanding graphs at
// the heart of the Pippenger–Lin construction.
//
// A (c,c′,t)-expanding graph is a bipartite directed graph with t inlets
// and t outlets such that every set of c inlets is joined by edges to at
// least c′ outlets. The paper's Network 𝒩 uses (32·4^μ, 33.07·4^μ,
// 64·4^μ)-expanding graphs — i.e. c = t/2 and c′ ≈ 0.5167·t — of in/out
// degree 10, citing Bassalygo & Pinsker for the probabilistic construction
// and Margulis / Gabber–Galil for explicit ones.
//
// We provide both:
//
//   - RandomMatchings: the union of d independent uniform perfect
//     matchings, the standard probabilistic construction (d-regular in
//     both directions, multi-edges possible and electrically meaningful);
//   - GabberGalil: the explicit degree-5 affine expander on Z_m × Z_m.
//
// Certification of the (c,c′) property is coNP-hard in general, so the
// package offers three verifiers with different exactness/cost trade-offs:
// exhaustive subset enumeration (exact, tiny t), random-subset sampling
// (statistical, any t), and a greedy adversarial lower bound that tries to
// construct a bad inlet set (one-sided: a found violation is real).
package expander

import (
	"fmt"
	"math"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// Bipartite is a bipartite directed multigraph with t inlets and t outlets.
// To[i] lists the outlets adjacent to inlet i (repeats = parallel switches).
type Bipartite struct {
	T  int
	To [][]int32
}

// RandomMatchings returns the union of d uniform random perfect matchings
// on t×t, giving a d-regular (both sides) bipartite multigraph.
func RandomMatchings(t, d int, r *rng.RNG) *Bipartite {
	if t < 1 || d < 1 {
		panic(fmt.Sprintf("expander: invalid t=%d d=%d", t, d))
	}
	b := &Bipartite{T: t, To: make([][]int32, t)}
	for i := range b.To {
		b.To[i] = make([]int32, 0, d)
	}
	for k := 0; k < d; k++ {
		perm := r.Perm(t)
		for i, o := range perm {
			b.To[i] = append(b.To[i], int32(o))
		}
	}
	return b
}

// GabberGalil returns the explicit degree-5 expander on t = m² vertices:
// inlet (x,y) is joined to outlets (x,y), (x,x+y), (x,x+y+1), (x+y,y) and
// (x+y+1,y), all mod m. Each of the five maps is a bijection of Z_m², so
// the graph is 5-regular in both directions.
func GabberGalil(m int) *Bipartite {
	if m < 1 {
		panic("expander: GabberGalil needs m >= 1")
	}
	t := m * m
	b := &Bipartite{T: t, To: make([][]int32, t)}
	id := func(x, y int) int32 { return int32(x*m + y) }
	for x := 0; x < m; x++ {
		for y := 0; y < m; y++ {
			i := id(x, y)
			b.To[i] = []int32{
				id(x, y),
				id(x, (x+y)%m),
				id(x, (x+y+1)%m),
				id((x+y)%m, y),
				id((x+y+1)%m, y),
			}
		}
	}
	return b
}

// NumEdges returns the total number of switches.
func (b *Bipartite) NumEdges() int {
	m := 0
	for _, adj := range b.To {
		m += len(adj)
	}
	return m
}

// InDegrees returns the in-degree of every outlet.
func (b *Bipartite) InDegrees() []int {
	in := make([]int, b.T)
	for _, adj := range b.To {
		for _, o := range adj {
			in[o]++
		}
	}
	return in
}

// AddToBuilder adds the bipartite edges to gb, mapping inlet i to vertex
// inletBase+i and outlet o to outletBase+o, and returns the number of
// switches added.
func (b *Bipartite) AddToBuilder(gb *graph.Builder, inletBase, outletBase int32) int {
	added := 0
	for i, adj := range b.To {
		for _, o := range adj {
			gb.AddEdge(inletBase+int32(i), outletBase+o)
			added++
		}
	}
	return added
}

// AddToBuilderReversed adds the edges with direction reversed (outlet →
// inlet), used for the mirror half of Network 𝒩.
func (b *Bipartite) AddToBuilderReversed(gb *graph.Builder, outletBase, inletBase int32) int {
	added := 0
	for i, adj := range b.To {
		for _, o := range adj {
			gb.AddEdge(outletBase+o, inletBase+int32(i))
			added++
		}
	}
	return added
}

// AdversarialMinNeighbors greedily searches for a small-expansion inlet set
// of size c: starting from the inlet whose neighborhood is smallest, it
// repeatedly adds the inlet contributing the fewest new outlets. The
// returned count is an upper bound on the true minimum expansion (i.e. a
// one-sided certificate: if it is < c′, the graph is NOT (c,c′)-expanding).
func (b *Bipartite) AdversarialMinNeighbors(c int) int {
	if c < 1 || c > b.T {
		panic("expander: c out of range")
	}
	mark := make([]bool, b.T)
	inSet := make([]bool, b.T)
	covered := 0
	// Seed: inlet with the smallest distinct-neighbor count.
	best, bestN := 0, b.T+1
	scratch := make([]bool, b.T)
	for i := 0; i < b.T; i++ {
		n := 0
		for _, o := range b.To[i] {
			if !scratch[o] {
				scratch[o] = true
				n++
			}
		}
		for _, o := range b.To[i] {
			scratch[o] = false
		}
		if n < bestN {
			best, bestN = i, n
		}
	}
	add := func(i int) {
		inSet[i] = true
		for _, o := range b.To[i] {
			if !mark[o] {
				mark[o] = true
				covered++
			}
		}
	}
	add(best)
	for k := 1; k < c; k++ {
		bestI, bestNew := -1, b.T+1
		for i := 0; i < b.T; i++ {
			if inSet[i] {
				continue
			}
			nw := 0
			for _, o := range b.To[i] {
				if !mark[o] {
					nw++
				}
			}
			if nw < bestNew {
				bestI, bestNew = i, nw
				if nw == 0 {
					break
				}
			}
		}
		add(bestI)
	}
	return covered
}

// SpectralGap estimates the second-largest eigenvalue of the symmetric
// random-walk operator P = (A Aᵀ)/d² on the inlet side (inlet → outlet →
// inlet), via power iteration on the subspace orthogonal to the uniform
// vector. Values well below 1 certify rapid mixing and hence good
// expansion (Alon–Chung); returns the estimate after iters rounds.
// The graph must be d-regular in both directions.
func (b *Bipartite) SpectralGap(d, iters int, r *rng.RNG) float64 {
	t := b.T
	in := b.InDegrees()
	for _, deg := range in {
		if deg != d {
			panic("expander: SpectralGap requires d-regularity")
		}
	}
	x := make([]float64, t)
	y := make([]float64, t)
	z := make([]float64, t)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	deflate := func(v []float64) {
		mean := 0.0
		for _, a := range v {
			mean += a
		}
		mean /= float64(t)
		for i := range v {
			v[i] -= mean
		}
	}
	norm := func(v []float64) float64 {
		s := 0.0
		for _, a := range v {
			s += a * a
		}
		return math.Sqrt(s)
	}
	deflate(x)
	if n := norm(x); n > 0 {
		for i := range x {
			x[i] /= n
		}
	}
	lambda := 0.0
	for it := 0; it < iters; it++ {
		// y = Aᵀ x (outlet accumulation), z = A y (back to inlets), /d².
		for i := range y {
			y[i] = 0
		}
		for i := 0; i < t; i++ {
			for _, o := range b.To[i] {
				y[o] += x[i]
			}
		}
		for i := range z {
			z[i] = 0
		}
		for i := 0; i < t; i++ {
			for _, o := range b.To[i] {
				z[i] += y[o]
			}
		}
		dd := float64(d * d)
		for i := range z {
			z[i] /= dd
		}
		deflate(z)
		n := norm(z)
		if n == 0 {
			return 0
		}
		lambda = n // since x was unit
		for i := range x {
			x[i] = z[i] / n
		}
	}
	// λ of P=(AAᵀ)/d² equals σ² where σ is the normalized second singular
	// value of A/d; report σ, the usual bipartite expansion measure.
	return math.Sqrt(lambda)
}
