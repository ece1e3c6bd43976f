package core

import (
	"fmt"

	"ftcsn/internal/graph"
)

// WrapGraph adapts an arbitrary acyclic terminal network — an expander
// chain, a hammock substitution, a Mirror() image, a hyperx or circulant
// unrolling — to the certification machinery built for 𝒩: the graph's
// topological levels (graph.Levels) play the role of stages, and
// MiddleStage is the central level ⌊L/2⌋, so MajorityAccess measures
// every terminal's access to a majority of the middle level exactly as
// Lemma 6 does for 𝒩's middle stage. The word-parallel AccessChecker,
// the evaluator pipeline, and the churn engines all run unmodified on the
// wrapped network.
//
// P is left zero: the wrapped network has no 𝒩 parameters, so
// 𝒩-specific measurements (Lemma 3's grid access, Theorem-2 bounds) do
// not apply.
//
// Errors: graphs that fail graph.Validate (missing or repeated
// terminals, a switch into an input or out of an output, through which
// the certificate would count paths no circuit may use) and cyclic graphs
// (no leveling) are rejected, so every Network has the leveling
// AccessChecker sweeps.
func WrapGraph(g *graph.Graph) (*Network, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: WrapGraph: %w", err)
	}
	lv, err := g.Levels()
	if err != nil {
		return nil, fmt.Errorf("core: WrapGraph: %w", err)
	}
	L := lv.NumLevels()
	if L < 2 {
		return nil, fmt.Errorf("core: WrapGraph: %d levels; need at least an input and an output level", L)
	}
	return &Network{
		G:           g,
		MiddleStage: L / 2,
	}, nil
}
