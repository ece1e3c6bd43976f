// Package core implements the primary contribution of Pippenger & Lin:
// the explicit fault-tolerant strictly-nonblocking network 𝒩 of Section 6
// (Fig. 5), with Θ(n (log n)²) switches and Θ(log n) depth, that survives
// the random switch failure model (Theorem 2).
//
// # Construction
//
// With n = 4^ν inputs and outputs, Network 𝒩 has 4ν+1 stages:
//
//	stage 0            n inputs
//	stages 1..ν        n input directed grids Φ₁..Φₙ (cyclic, L rows each)
//	stages ν..3ν       the core 𝓜: the recursive expander-based
//	                   nonblocking network of Pippenger '82, scaled up by a
//	                   factor 4^γ and with its first and last γ stages cut
//	                   off; the right half is the exact mirror image of the
//	                   left half
//	stages 3ν..4ν-1    n output directed grids Ψ₁..Ψₙ
//	stage 4ν           n outputs
//
// Each input is joined by a switch to every row of the first stage of its
// grid; each grid's last stage is identified with one group of 𝓜's first
// stage; mirror-symmetrically on the output side.
//
// Within 𝓜's left half, stage ν+k holds 4^(ν−k) groups of t_k = L·4^k
// vertices. Each group (child) is joined to its parent group at stage
// ν+k+1 — which it shares with 3 siblings — by four expanding-graph
// instances, one per quarter of the parent, so that every half of the
// child's vertices reaches well over half of each quarter (the paper's
// (32·4^μ, 33.07·4^μ, 64·4^μ)-expanding graphs of degree 10). Instances
// are unions of DQ uniform matchings (Bassalygo–Pinsker); the total degree
// is therefore 4·DQ (the paper's 10 corresponds to DQ = 2.5).
//
// # Parameters
//
// The paper's constants (M=64 rows, degree 10, 4^γ ≈ 34ν, ε=10⁻⁶) make
// materialized instances enormous — 𝒩 has ≈ (1536ν−128)·4^(ν+γ) switches
// (the paper reports 1408ν·4^(ν+γ); see ACCOUNTING in DESIGN.md).
// Params therefore exposes M, DQ and γ so experiments can materialize
// faithful scaled instances, while the paper-constant sizes are available
// in closed form via PaperAccounting.
package core

import (
	"fmt"

	"ftcsn/internal/expander"
	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// Branching is the arity of the recursive construction; the paper's
// construction is 4-ary throughout.
const Branching = 4

// Params configures Network 𝒩.
type Params struct {
	// Nu is ν: the network has n = 4^ν inputs and outputs.
	Nu int
	// Gamma is γ, the scale-up exponent: every stage of 𝓜 is 4^γ times
	// larger than the terminal count. The paper sets γ = ⌈log₄(34ν)⌉.
	Gamma int
	// M is the row multiplier: terminal grids have L = M·4^γ rows.
	// The paper uses M = 64.
	M int
	// DQ is the number of uniform matchings per (child group, parent
	// quarter) expander instance; vertex degree inside 𝓜 is 4·DQ. The
	// paper's degree-10 graphs correspond to DQ = 2.5; the scaled default
	// is 3 (the smallest integer degree that clears the paper's expansion
	// ratio 33.07/64 adversarially — see expander tests).
	DQ int
	// Explicit selects the deterministic Gabber–Galil degree-5 expanders
	// instead of random matchings (the paper cites [GG] and [M] for the
	// explicit alternative to [BP]). It requires M to be a perfect square
	// so every group size t = M·4^(γ+k) is a square; DQ is ignored and
	// the per-quarter degree is 5 (vertex degree 20 inside 𝓜).
	Explicit bool
	// Seed drives the probabilistic expander instances.
	Seed uint64
}

// GabberGalilDegree is the fixed per-quarter degree of the explicit
// construction.
const GabberGalilDegree = 5

// QuarterDegree returns the per-quarter expander degree in effect.
func (p Params) QuarterDegree() int {
	if p.Explicit {
		return GabberGalilDegree
	}
	return p.DQ
}

// DefaultParams returns laptop-scale parameters for n = 4^nu terminals:
// γ=0, M=8, DQ=3. These preserve every structural property of the paper's
// construction (grids, four-quarter expanders, exact mirror) at a size
// suitable for Monte-Carlo experiments.
func DefaultParams(nu int) Params {
	return Params{Nu: nu, Gamma: 0, M: 8, DQ: 3, Seed: 1}
}

// PaperGamma returns the paper's scale-up exponent γ = ⌈log₄(34ν)⌉,
// i.e. the least γ with 4^γ ≥ 34ν.
func PaperGamma(nu int) int {
	g := 0
	for p := 1; p < 34*nu; p *= 4 {
		g++
	}
	return g
}

// PaperParams returns the paper-faithful constants for n = 4^nu. Note the
// DQ=3 (degree 12) stand-in for the paper's degree 10, which is not a
// multiple of four; accounting with exact paper constants is done
// analytically by PaperAccounting instead.
func PaperParams(nu int) Params {
	return Params{Nu: nu, Gamma: PaperGamma(nu), M: 64, DQ: 3, Seed: 1}
}

// Validate checks parameter sanity, and that the network Build would
// materialize has at most MaxBuildEdges switches.
func (p Params) Validate() error {
	if p.Nu < 1 {
		return fmt.Errorf("core: Nu must be >= 1, got %d", p.Nu)
	}
	if p.Gamma < 0 {
		return fmt.Errorf("core: Gamma must be >= 0, got %d", p.Gamma)
	}
	if p.M < 1 {
		return fmt.Errorf("core: M must be >= 1, got %d", p.M)
	}
	if p.DQ < 1 {
		return fmt.Errorf("core: DQ must be >= 1, got %d", p.DQ)
	}
	if p.Explicit {
		if r := isqrt(p.M); r*r != p.M {
			return fmt.Errorf("core: Explicit requires a perfect-square M, got %d", p.M)
		}
	}
	if !p.withinBuildLimit() {
		return fmt.Errorf("core: Nu=%d, Gamma=%d, M=%d, DQ=%d builds more than MaxBuildEdges=%d switches; use Accounting for closed-form sizes",
			p.Nu, p.Gamma, p.M, p.DQ, MaxBuildEdges)
	}
	return nil
}

// withinBuildLimit reports whether Accounting(p).Edges is at most
// MaxBuildEdges without letting Accounting's arithmetic wrap int, as it
// does for ν ≥ 30 or a huge M, γ or DQ. The switch count is at least n·L
// and at least 8q, so it first bounds n·L = M·4^(ν+γ), one factor at a
// time, and q by the limit; within those bounds Accounting cannot wrap.
func (p Params) withinBuildLimit() bool {
	nL := p.M
	for _, k := range [...]int{p.Nu, p.Gamma} {
		for i := 0; i < k; i++ {
			if nL > MaxBuildEdges/4 {
				return false
			}
			nL *= 4
		}
	}
	return p.QuarterDegree() <= MaxBuildEdges/8 && Accounting(p).Edges <= MaxBuildEdges
}

// isqrt returns ⌊√x⌋.
func isqrt(x int) int {
	if x < 0 {
		return -1
	}
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// N returns the number of inputs (= outputs), 4^Nu.
func (p Params) N() int { return pow4(p.Nu) }

// L returns the number of grid rows, M·4^Gamma.
func (p Params) L() int { return p.M * pow4(p.Gamma) }

func pow4(k int) int {
	v := 1
	for i := 0; i < k; i++ {
		v *= 4
	}
	return v
}

// MaxBuildEdges guards against accidentally materializing paper-constant
// instances that would exhaust memory.
const MaxBuildEdges = 1 << 27 // ~134M switches

// Network is a materialized instance of 𝒩.
type Network struct {
	P Params
	G *graph.Graph

	// MiddleStage is 2ν, the central stage of 𝓜 whose majority
	// accessibility (Lemma 6) certifies nonblocking routing. Stages are
	// the graph's levels (graph.Levels), which also give each stage's
	// width.
	MiddleStage int
}

// Inputs returns the input terminals (stage 0).
func (nw *Network) Inputs() []int32 { return nw.G.Inputs() }

// Outputs returns the output terminals (stage 4ν).
func (nw *Network) Outputs() []int32 { return nw.G.Outputs() }

// Build materializes Network 𝒩 for the given parameters.
func Build(p Params) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	acct := Accounting(p)
	nu := p.Nu
	n := p.N()
	L := p.L()
	numStages := 4*nu + 1
	r := rng.New(p.Seed)

	b := graph.NewBuilder(acct.Edges)
	stageBase := make([]int32, numStages)
	for s := 0; s < numStages; s++ {
		size := n * L
		if s == 0 || s == 4*nu {
			size = n
		}
		stageBase[s] = b.AddVertices(size)
	}
	for i := 0; i < n; i++ {
		b.MarkInput(stageBase[0] + int32(i))
		b.MarkOutput(stageBase[4*nu] + int32(i))
	}

	// Input terminal switches: input i to every row of Φ_i's first stage.
	for i := 0; i < n; i++ {
		in := stageBase[0] + int32(i)
		gridBase := stageBase[1] + int32(i*L)
		for row := 0; row < L; row++ {
			b.AddEdge(in, gridBase+int32(row))
		}
	}
	// Input grids Φ_i: cyclic transitions between stages 1..ν.
	for s := 1; s < nu; s++ {
		for i := 0; i < n; i++ {
			from := stageBase[s] + int32(i*L)
			to := stageBase[s+1] + int32(i*L)
			for row := 0; row < L; row++ {
				b.AddEdge(from+int32(row), to+int32(row))
				b.AddEdge(from+int32(row), to+int32((row+1)%L))
			}
		}
	}

	// Left half of 𝓜: stages ν+k → ν+k+1 for k = 0..ν−1. Keep every
	// expander instance so the right half can be built as the exact mirror.
	type instanceKey struct{ k, parent, child, quarter int }
	instances := make(map[instanceKey]*expander.Bipartite)
	makeInstance := func(tk int) *expander.Bipartite {
		if p.Explicit {
			return expander.GabberGalil(isqrt(tk))
		}
		return expander.RandomMatchings(tk, p.DQ, r)
	}
	for k := 0; k < nu; k++ {
		tk := L * pow4(k)
		parents := pow4(nu - k - 1)
		srcBase := stageBase[nu+k]
		dstBase := stageBase[nu+k+1]
		for pg := 0; pg < parents; pg++ {
			parentBase := dstBase + int32(pg*Branching*tk)
			for child := 0; child < Branching; child++ {
				childBase := srcBase + int32((pg*Branching+child)*tk)
				for q := 0; q < Branching; q++ {
					inst := makeInstance(tk)
					instances[instanceKey{k, pg, child, q}] = inst
					inst.AddToBuilder(b, childBase, parentBase+int32(q*tk))
				}
			}
		}
	}
	// Right half of 𝓜: stages 2ν+j → 2ν+j+1, the mirror image of left
	// transition k = ν−1−j: each instance is reused with reversed edges.
	for j := 0; j < nu; j++ {
		k := nu - 1 - j
		tk := L * pow4(k)
		parents := pow4(nu - k - 1) // groups on the larger (earlier) side
		srcBase := stageBase[2*nu+j]
		dstBase := stageBase[2*nu+j+1]
		for pg := 0; pg < parents; pg++ {
			parentBase := srcBase + int32(pg*Branching*tk)
			for child := 0; child < Branching; child++ {
				childBase := dstBase + int32((pg*Branching+child)*tk)
				inst4 := [Branching]*expander.Bipartite{}
				for q := 0; q < Branching; q++ {
					inst4[q] = instances[instanceKey{k, pg, child, q}]
				}
				for q := 0; q < Branching; q++ {
					// Mirror: left edge child[i] → quarter[o] becomes
					// right edge quarter[o] → child[i].
					inst4[q].AddToBuilderReversed(b, parentBase+int32(q*tk), childBase)
				}
			}
		}
	}

	// Output grids Ψ_j: cyclic transitions between stages 3ν..4ν−1.
	for s := 3 * nu; s < 4*nu-1; s++ {
		for i := 0; i < n; i++ {
			from := stageBase[s] + int32(i*L)
			to := stageBase[s+1] + int32(i*L)
			for row := 0; row < L; row++ {
				b.AddEdge(from+int32(row), to+int32(row))
				b.AddEdge(from+int32(row), to+int32((row+1)%L))
			}
		}
	}
	// Output terminal switches: every row of Ψ_j's last stage to output j.
	for i := 0; i < n; i++ {
		out := stageBase[4*nu] + int32(i)
		gridBase := stageBase[4*nu-1] + int32(i*L)
		for row := 0; row < L; row++ {
			b.AddEdge(gridBase+int32(row), out)
		}
	}

	g := b.Freeze()
	nw := &Network{
		P:           p,
		G:           g,
		MiddleStage: 2 * nu,
	}
	if g.NumEdges() != acct.Edges {
		return nil, fmt.Errorf("core: accounting mismatch: built %d switches, formula %d", g.NumEdges(), acct.Edges)
	}
	return nw, nil
}
