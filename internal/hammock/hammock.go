// Package hammock builds the (l,w)-directed grids of Pippenger & Lin
// (Fig. 4) — the "hammocks" of Moore & Shannon — and the (ε,ε′)-1-network
// reliability amplifiers of Proposition 1.
//
// An (l,w)-directed grid has w stages of l vertices each; vertex (i,j) is
// joined by switches to (i,j+1) and (i+1,j+1). Two variants appear in the
// paper: the plain grid of Fig. 4 (rows do not wrap) and the cyclic variant
// used to interface Network 𝒩's terminals, which has exactly 2l switches
// per stage transition (128(ν−1)·4^γ per grid in the paper's accounting).
//
// Grids make two-terminal networks whose open- and closed-failure
// probabilities BOTH decay exponentially in the grid dimensions: shorting
// input to output needs a closed path crossing all w stages, while
// disconnecting them needs an open cut of at least l switches. Choosing
// l = w = Θ(log 1/ε′) yields Proposition 1's (ε,ε′)-1-network with
// Θ((log 1/ε′)²) switches and Θ(log 1/ε′) depth.
package hammock

import (
	"fmt"
	"math"

	"ftcsn/internal/graph"
	"ftcsn/internal/reliability"
)

// Grid is an (l,w)-directed grid. Vertices are laid out stage-major:
// VertexAt(i, j) = base + j*l + i.
type Grid struct {
	L, W   int  // rows, stages
	Cyclic bool // whether row i+1 wraps modulo L
	G      *graph.Graph
	base   int32 // ID of vertex (0,0)
}

// BuildInto adds an (l,w)-directed grid to b and returns its handle. The
// grid has no terminals of its own; callers wire its first and last stages.
func BuildInto(b *graph.Builder, l, w int, cyclic bool) *Grid {
	if l < 1 || w < 1 {
		panic(fmt.Sprintf("hammock: invalid grid %dx%d", l, w))
	}
	base := b.AddVertices(l * w)
	g := &Grid{L: l, W: w, Cyclic: cyclic, base: base}
	for j := 0; j < w-1; j++ {
		for i := 0; i < l; i++ {
			from := g.at(i, j)
			b.AddEdge(from, g.at(i, j+1))
			if cyclic {
				b.AddEdge(from, g.at((i+1)%l, j+1))
			} else if i+1 < l {
				b.AddEdge(from, g.at(i+1, j+1))
			}
		}
	}
	return g
}

func (g *Grid) at(i, j int) int32 { return g.base + int32(j*g.L+i) }

// VertexAt returns the graph vertex at row i, stage j. It panics on
// out-of-range coordinates.
func (g *Grid) VertexAt(i, j int) int32 {
	if i < 0 || i >= g.L || j < 0 || j >= g.W {
		panic(fmt.Sprintf("hammock: VertexAt(%d,%d) outside %dx%d", i, j, g.L, g.W))
	}
	return g.at(i, j)
}

// Bind must be called after the enclosing Builder freezes; it records the
// final Graph so the Grid's vertex IDs can be interpreted.
func (g *Grid) Bind(gr *graph.Graph) { g.G = gr }

// Network is a standalone two-terminal hammock network: a source joined by
// a switch to every row of the first stage and a sink joined from every row
// of the last stage. It realizes the (ε,ε′)-1-network of Proposition 1.
type Network struct {
	Grid   *Grid
	G      *graph.Graph
	Source int32
	Sink   int32
}

// NewNetwork builds the two-terminal (l,w) hammock.
func NewNetwork(l, w int, cyclic bool) *Network {
	b := graph.NewBuilder((2 * l) * (w + 1))
	src := b.AddVertex()
	grid := BuildInto(b, l, w, cyclic)
	sink := b.AddVertex()
	for i := 0; i < l; i++ {
		b.AddEdge(src, grid.VertexAt(i, 0))
		b.AddEdge(grid.VertexAt(i, w-1), sink)
	}
	b.MarkInput(src)
	b.MarkOutput(sink)
	g := b.Freeze()
	grid.Bind(g)
	return &Network{Grid: grid, G: g, Source: src, Sink: sink}
}

// AccessNetwork is the one-sided grid of Lemma 3: a source joined to every
// row of the first stage, with NO sink — experiment E3 measures how many
// last-stage rows the source can still reach through non-faulty vertices.
type AccessNetwork struct {
	Grid   *Grid
	G      *graph.Graph
	Source int32
}

// NewAccessNetwork builds the one-sided (l,w) grid.
func NewAccessNetwork(l, w int, cyclic bool) *AccessNetwork {
	b := graph.NewBuilder(2 * l * w)
	src := b.AddVertex()
	grid := BuildInto(b, l, w, cyclic)
	for i := 0; i < l; i++ {
		b.AddEdge(src, grid.VertexAt(i, 0))
	}
	b.MarkInput(src)
	// The last-stage rows act as outputs for Validate purposes.
	for i := 0; i < l; i++ {
		b.MarkOutput(grid.VertexAt(i, w-1))
	}
	g := b.Freeze()
	grid.Bind(g)
	return &AccessNetwork{Grid: grid, G: g, Source: src}
}

// LastStageAccess counts the last-stage rows reachable from the source
// through vertices allowed by ok (the source itself is always allowed).
func (a *AccessNetwork) LastStageAccess(ok func(int32) bool) int {
	seen := a.G.ReachableFrom(a.Source, ok)
	count := 0
	for i := 0; i < a.Grid.L; i++ {
		if seen[a.Grid.VertexAt(i, a.Grid.W-1)] {
			count++
		}
	}
	return count
}

// ShortUpperBound bounds the probability that the two-terminal hammock
// shorts (input and output contract through closed switches): a shorting
// path uses w+1 closed switches and there are at most l·2^(w-1) directed
// source→sink paths.
func ShortUpperBound(l, w int, eps float64) float64 {
	paths := float64(l) * math.Pow(2, float64(w-1))
	return clampProb(paths * math.Pow(eps, float64(w+1)))
}

// OpenUpperBound bounds the probability that no conducting path survives.
// Any open cut must contain at least l switches (the grid's source/sink min
// cut is l); the number of minimal "connected" cut sets of size k is at
// most (w+1)·3^k by the walk-counting argument of the paper's Lemma 3, so
// P[open] ≤ Σ_{k≥l} (w+1)·(3ε)^k = (w+1)·(3ε)^l / (1−3ε) for 3ε < 1.
func OpenUpperBound(l, w int, eps float64) float64 {
	x := 3 * eps
	if x >= 1 {
		return 1
	}
	return clampProb(float64(w+1) * math.Pow(x, float64(l)) / (1 - x))
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// SubstituteEdges implements the reduction of the paper's §3: given a
// network Φ and an (ε,ε′)-1-network Ψ (here an (l,w) hammock), replace
// every switch of Φ by a copy of Ψ. If Φ is an (ε′,δ)-X network, the
// result is an (ε,δ)-X network whose size and depth grew only by the
// constant factors |Ψ| and depth(Ψ) — this is how the paper shows the
// exact values of ε and δ do not affect the asymptotics.
//
// Each edge (u,v) of g becomes: u → [source row switches] → grid → [sink
// row switches] → v, with fresh grid vertices per edge. Terminals and
// vertex IDs of g are preserved (g's vertices come first).
func SubstituteEdges(g *graph.Graph, l, w int, cyclic bool) *graph.Graph {
	perEdgeEdges := 2*l + (2*l)*(w-1) // bounds capacity; exact for cyclic
	b := graph.NewBuilder(g.NumEdges() * perEdgeEdges)
	b.AddVertices(g.NumVertices())
	for _, v := range g.Inputs() {
		b.MarkInput(v)
	}
	for _, v := range g.Outputs() {
		b.MarkOutput(v)
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		u, v := g.EdgeFrom(e), g.EdgeTo(e)
		grid := BuildInto(b, l, w, cyclic)
		for i := 0; i < l; i++ {
			b.AddEdge(u, grid.VertexAt(i, 0))
			b.AddEdge(grid.VertexAt(i, w-1), v)
		}
	}
	return b.Freeze()
}

// Amplifier is the explicitly constructed (ε,ε′)-1-network of
// Proposition 1, realized as a square hammock.
type Amplifier struct {
	Eps, EpsPrime float64
	Net           *Network
	// POpenBound and PShortBound are the analytic guarantees; both < ε′.
	POpenBound, PShortBound float64
}

// Dimension returns the minimal square dimension l=w such that both
// analytic failure bounds fall below epsPrime at switch failure rate eps.
// The result grows as Θ(log 1/ε′) for fixed eps < 1/6 (where the path and
// cut counting arguments converge), matching Proposition 1.
func Dimension(eps, epsPrime float64) (int, error) {
	if eps <= 0 || eps >= 1.0/6.0 {
		return 0, fmt.Errorf("hammock: eps %v out of (0, 1/6) for the explicit bounds", eps)
	}
	if epsPrime <= 0 || epsPrime >= 1 {
		return 0, fmt.Errorf("hammock: epsPrime %v out of (0,1)", epsPrime)
	}
	for d := 2; d <= 1<<20; d++ {
		if ShortUpperBound(d, d, eps) < epsPrime && OpenUpperBound(d, d, eps) < epsPrime {
			return d, nil
		}
	}
	return 0, fmt.Errorf("hammock: no dimension found for eps=%v epsPrime=%v", eps, epsPrime)
}

// NewAmplifier constructs the Proposition-1 network for the given
// parameters. Its size is Θ((log 1/ε′)²) switches and its depth
// Θ(log 1/ε′).
func NewAmplifier(eps, epsPrime float64) (*Amplifier, error) {
	d, err := Dimension(eps, epsPrime)
	if err != nil {
		return nil, err
	}
	net := NewNetwork(d, d, false)
	return &Amplifier{
		Eps:         eps,
		EpsPrime:    epsPrime,
		Net:         net,
		POpenBound:  OpenUpperBound(d, d, eps),
		PShortBound: ShortUpperBound(d, d, eps),
	}, nil
}

// Size returns the number of switches in the amplifier.
func (a *Amplifier) Size() int { return a.Net.G.NumEdges() }

// Depth returns the switch depth of the amplifier.
func (a *Amplifier) Depth() int { return a.Net.Grid.W + 1 }

// ExactFailureProbs returns the exact open/short probabilities of the
// amplifier via the transfer-matrix DP, when the grid is small enough.
func (a *Amplifier) ExactFailureProbs() (pOpen, pShort float64, err error) {
	g := a.Net.Grid
	return reliability.GridFailureProbs(g.L, g.W, g.Cyclic, a.Eps)
}
