package reliability

// Exact and closed-form references the tests check the dynamic programs
// and Proposition 1's amplifier against. No production path calls them.

import (
	"fmt"
	"math"

	"ftcsn/internal/graph"
)

// MaxExactEdges bounds the network size for ExactSmallNetwork's 3^m
// enumeration.
const MaxExactEdges = 14

// ExactSmallNetwork computes the exact open and short probabilities of an
// arbitrary two-terminal network (one input, one output) with the true
// contraction semantics, by enumerating all 3^m switch-state vectors:
//
//	shorted: input and output lie in one component of the closed subgraph
//	         (undirected);
//	open:    the output is not reachable from the input when normal
//	         switches conduct forward and closed switches conduct both ways.
//
// m = g.NumEdges() must be at most MaxExactEdges.
func ExactSmallNetwork(g *graph.Graph, eps float64) (pOpen, pShort float64, err error) {
	m := g.NumEdges()
	if m > MaxExactEdges {
		return 0, 0, fmt.Errorf("reliability: %d edges exceeds exact limit %d", m, MaxExactEdges)
	}
	if len(g.Inputs()) != 1 || len(g.Outputs()) != 1 {
		return 0, 0, fmt.Errorf("reliability: ExactSmallNetwork needs exactly one input and one output")
	}
	src, dst := g.Inputs()[0], g.Outputs()[0]
	state := make([]uint8, m) // 0 normal, 1 open, 2 closed
	probOf := [3]float64{1 - 2*eps, eps, eps}
	n := g.NumVertices()
	seen := make([]bool, n)
	queue := make([]int32, 0, n)

	reach := func(closedOnly bool) bool {
		for i := range seen {
			seen[i] = false
		}
		queue = queue[:0]
		seen[src] = true
		queue = append(queue, src)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, e := range g.OutEdges(v) {
				s := state[e]
				ok := s == 2 || (!closedOnly && s == 0)
				if ok && !seen[g.EdgeTo(e)] {
					seen[g.EdgeTo(e)] = true
					queue = append(queue, g.EdgeTo(e))
				}
			}
			for _, e := range g.InEdges(v) {
				if state[e] == 2 && !seen[g.EdgeFrom(e)] {
					seen[g.EdgeFrom(e)] = true
					queue = append(queue, g.EdgeFrom(e))
				}
			}
		}
		return seen[dst]
	}

	total := int64(1)
	for i := 0; i < m; i++ {
		total *= 3
	}
	for code := int64(0); code < total; code++ {
		c := code
		prob := 1.0
		for i := 0; i < m; i++ {
			state[i] = uint8(c % 3)
			prob *= probOf[state[i]]
			c /= 3
		}
		if prob == 0 {
			continue
		}
		if !reach(false) {
			pOpen += prob
		}
		if reach(true) {
			pShort += prob
		}
	}
	return pOpen, pShort, nil
}

// FailurePolynomial computes the coefficients c_k of the failure
// probability of a small two-terminal network as a polynomial in ε under
// the symmetric model:
//
//	P[open or shorted] = Σ_k c_k · ε^k (1−2ε)^(m−k) · 2^k-normalized...
//
// Concretely it returns counts[k] = the number of (open/closed) failure
// patterns with exactly k failed switches under which the network is open
// or shorted, so that
//
//	P[fail](ε) = Σ_k counts[k] · ε^k · (1−2ε)^(m−k)
//
// (each failed switch contributes ε for its specific mode, and counts
// already distinguishes open from closed). The §3 argument that "the
// failure probability is a polynomial in ε whose constant term vanishes"
// is visible directly: counts[0] = 0 for every working network, which is
// what makes the δ-rescaling trick (replace ε by εδ₁/δ₂) sound.
func FailurePolynomial(g *graph.Graph, maxEdges int) ([]int64, error) {
	m := g.NumEdges()
	if m > maxEdges || m > MaxExactEdges {
		return nil, fmt.Errorf("reliability: %d edges exceeds limit", m)
	}
	if len(g.Inputs()) != 1 || len(g.Outputs()) != 1 {
		return nil, fmt.Errorf("reliability: FailurePolynomial needs one input and one output")
	}
	src, dst := g.Inputs()[0], g.Outputs()[0]
	counts := make([]int64, m+1)
	state := make([]uint8, m)
	n := g.NumVertices()
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	reach := func(closedOnly bool) bool {
		for i := range seen {
			seen[i] = false
		}
		queue = queue[:0]
		seen[src] = true
		queue = append(queue, src)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, e := range g.OutEdges(v) {
				s := state[e]
				if (s == 2 || (!closedOnly && s == 0)) && !seen[g.EdgeTo(e)] {
					seen[g.EdgeTo(e)] = true
					queue = append(queue, g.EdgeTo(e))
				}
			}
			for _, e := range g.InEdges(v) {
				if state[e] == 2 && !seen[g.EdgeFrom(e)] {
					seen[g.EdgeFrom(e)] = true
					queue = append(queue, g.EdgeFrom(e))
				}
			}
		}
		return seen[dst]
	}
	total := int64(1)
	for i := 0; i < m; i++ {
		total *= 3
	}
	for code := int64(0); code < total; code++ {
		c := code
		k := 0
		for i := 0; i < m; i++ {
			state[i] = uint8(c % 3)
			if state[i] != 0 {
				k++
			}
			c /= 3
		}
		if !reach(false) || reach(true) {
			counts[k]++
		}
	}
	return counts, nil
}

// EvalFailurePolynomial evaluates P[fail](ε) from FailurePolynomial's
// counts for a network with m switches.
func EvalFailurePolynomial(counts []int64, eps float64) float64 {
	m := len(counts) - 1
	p := 0.0
	for k, c := range counts {
		if c == 0 {
			continue
		}
		p += float64(c) * math.Pow(eps, float64(k)) * math.Pow(1-2*eps, float64(m-k))
	}
	return p
}

// SeriesParallelAmplifier composes a raw switch with failure probabilities
// (eps, eps) into a module whose two failure probabilities are both below
// target, by alternating series-of-s then parallel-of-s rounds. It returns
// the resulting module, the number of raw switches used, and the depth (the
// longest chain of raw switches), mirroring the recursive proof of
// Proposition 1. s=2 or 3 suffices for any eps < 1/2.
func SeriesParallelAmplifier(eps, target float64, s int) (mod TwoTerminal, size, depth int, err error) {
	if eps <= 0 || eps >= 0.5 {
		return mod, 0, 0, fmt.Errorf("reliability: eps %v out of (0, 1/2)", eps)
	}
	if target <= 0 || target >= 1 {
		return mod, 0, 0, fmt.Errorf("reliability: target %v out of (0,1)", target)
	}
	if s < 2 {
		return mod, 0, 0, fmt.Errorf("reliability: branching s=%d too small", s)
	}
	mod = TwoTerminal{POpen: eps, PShort: eps}
	size, depth = 1, 1
	const maxRounds = 200
	for round := 0; round < maxRounds; round++ {
		if mod.POpen < target && mod.PShort < target {
			return mod, size, depth, nil
		}
		// Attack the currently larger failure mode; series reduces shorts,
		// parallel reduces opens.
		if mod.PShort >= mod.POpen {
			mod = mod.Series(s)
			size *= s
			depth *= s
		} else {
			mod = mod.Parallel(s)
			size *= s
			// depth unchanged: parallel branches share the same endpoints
		}
		if mod.POpen >= 0.5 && mod.PShort >= 0.5 {
			return mod, size, depth, fmt.Errorf("reliability: amplifier diverged (eps=%v too large for s=%d)", eps, s)
		}
	}
	return mod, size, depth, fmt.Errorf("reliability: amplifier did not converge to %v", target)
}

// TwoTerminal describes a two-terminal module as a super-switch with its
// own open and short failure probabilities — the algebra of Moore &
// Shannon's "reliable circuits using less reliable relays".
type TwoTerminal struct {
	POpen  float64 // probability the module fails to conduct
	PShort float64 // probability the module is permanently shorted
}

// Series returns the composition of k copies of t in series: the chain is
// shorted only if every module shorts, and fails to conduct if any module
// is open.
func (t TwoTerminal) Series(k int) TwoTerminal {
	if k < 1 {
		panic("reliability: Series needs k >= 1")
	}
	return TwoTerminal{
		POpen:  1 - math.Pow(1-t.POpen, float64(k)),
		PShort: math.Pow(t.PShort, float64(k)),
	}
}

// Parallel returns the composition of k copies of t in parallel: the bundle
// is open only if every module is open, and shorted if any module shorts.
func (t TwoTerminal) Parallel(k int) TwoTerminal {
	if k < 1 {
		panic("reliability: Parallel needs k >= 1")
	}
	return TwoTerminal{
		POpen:  math.Pow(t.POpen, float64(k)),
		PShort: 1 - math.Pow(1-t.PShort, float64(k)),
	}
}
