package experiments

import (
	"fmt"
	"math"

	"ftcsn/internal/expander"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/hammock"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/rng"
	"ftcsn/internal/stats"
	"ftcsn/internal/trees"
)

// E1MooreShannon reproduces Proposition 1: explicit (ε,ε′)-1-networks of
// size Θ((log 1/ε′)²) and depth Θ(log 1/ε′), with both failure modes
// below ε′. For each target we report the hammock dimension chosen from
// the analytic bounds, the exact (transfer-matrix) failure probabilities
// where feasible, and a Monte-Carlo cross-check of one configuration.
func E1MooreShannon(mode Mode) Result {
	res := Result{
		ID:    "E1",
		Title: "Moore–Shannon (ε,ε′)-1-network amplifiers (Proposition 1, Fig. 4 hammocks)",
		Paper: "size C·(log₂ 1/ε′)² and depth d·log₂(1/ε′) suffice for both failure probabilities < ε′",
	}
	tab := stats.NewTable("ε", "ε′", "dim l=w", "size", "depth",
		"size/(lg 1/ε′)²", "depth/lg(1/ε′)", "bound P[open]", "bound P[short]", "DP P[open]", "DP P[short]")
	maxExp := 10
	if mode == Quick {
		maxExp = 6
	}
	for _, eps := range []float64{0.05, 0.01} {
		for e := 2; e <= maxExp; e += 2 {
			target := math.Pow(2, -float64(e))
			a, err := hammock.NewAmplifier(eps, target)
			if err != nil {
				res.Notes = append(res.Notes, fmt.Sprintf("ε=%v ε′=%v: %v", eps, target, err))
				continue
			}
			lg := float64(e)
			dpOpen, dpShort := math.NaN(), math.NaN()
			if a.Net.Grid.L <= 12 {
				dpOpen, dpShort, _ = a.ExactFailureProbs()
			}
			tab.AddRow(eps, target, a.Net.Grid.L, a.Size(), a.Depth(),
				float64(a.Size())/(lg*lg), float64(a.Depth())/lg,
				a.POpenBound, a.PShortBound, dpOpen, dpShort)
		}
	}
	res.Tables = append(res.Tables, tab)

	// Monte-Carlo cross-check of one mid-size amplifier under the true
	// contraction semantics.
	eps := 0.05
	a, err := hammock.NewAmplifier(eps, 1.0/64)
	if err == nil {
		trialsN := mode.trials(2000, 20000)
		inst := fault.NewInstance(a.Net.G)
		fsc := fault.NewScratch(a.Net.G)
		var r rng.RNG
		var opens, shorts stats.Proportion
		for i := 0; i < trialsN; i++ {
			r.ReseedStream(0xE1, uint64(i))
			inst.Reinject(fault.Symmetric(eps), &r)
			in, _ := inst.IsolatedPairWith(fsc)
			opens.Add(in >= 0)
			x, _ := inst.ShortedTerminalsWith(fsc)
			shorts.Add(x >= 0)
		}
		mc := stats.NewTable("quantity", "measured (95% Wilson)", "target ε′")
		mc.AddRow("P[open]", opens.String(), 1.0/64)
		mc.AddRow("P[short]", shorts.String(), 1.0/64)
		res.Tables = append(res.Tables, mc)
	}
	res.Notes = append(res.Notes,
		"size/(lg 1/ε′)² and depth/lg(1/ε′) stay bounded as ε′ → 0: the Θ((log 1/ε′)²) size and Θ(log 1/ε′) depth shape of Proposition 1",
		"the series-parallel amplifier calculus (reliability.SeriesParallelAmplifier) reproduces the same shape with explicit composition; see its tests")
	return res
}

// E2TreePaths reproduces Lemma 1 / Corollary 1 (Figs. 1–3): random trees
// with internal degree ≥ 3 yield ≥ l/42 edge-disjoint leaf-leaf paths of
// length ≤ 3; the measured ratio is compared with the improved l/4 remark,
// and the bad-leaf count with the 6l/7 bound from the payment argument.
func E2TreePaths(mode Mode) Result {
	res := Result{
		ID:    "E2",
		Title: "Edge-disjoint short leaf paths in trees (Lemma 1, Figs. 1–3)",
		Paper: "every tree with l leaves and internal degree ≥3 has ≥ l/42 edge-disjoint leaf-leaf paths of length ≤3 (remark: l/4 with finer analysis)",
	}
	tab := stats.NewTable("target l", "trees", "mean leaves", "mean paths",
		"min paths/l", "mean paths/l", "l/42 ok", "l/4 ok", "max bad/l", "6/7 bound ok")
	sizes := []int{16, 64, 256, 1024}
	if mode == Full {
		sizes = append(sizes, 4096)
	}
	perSize := mode.trials(10, 40)
	for _, l := range sizes {
		var leavesS, pathsS stats.Sample
		minRatio := math.Inf(1)
		var ratioS stats.Sample
		okLemma, okRemark, okBad := true, true, true
		maxBadRatio := 0.0
		for i := 0; i < perSize; i++ {
			tr := trees.RandomLeafy(l, rng.Stream(0xE2, uint64(l*1000+i)))
			leaves := len(tr.Leaves())
			paths := trees.ExtractShortPaths(tr)
			if err := trees.VerifyPaths(tr, paths); err != nil {
				res.Notes = append(res.Notes, fmt.Sprintf("INVALID extraction at l=%d: %v", l, err))
				continue
			}
			ratio := float64(len(paths)) / float64(leaves)
			leavesS.Add(float64(leaves))
			pathsS.Add(float64(len(paths)))
			ratioS.Add(ratio)
			if ratio < minRatio {
				minRatio = ratio
			}
			if len(paths) < trees.Lemma1Bound(leaves) {
				okLemma = false
			}
			if len(paths) < trees.RemarkBound(leaves) {
				okRemark = false
			}
			bad := float64(len(trees.BadLeaves(tr))) / float64(leaves)
			if bad > maxBadRatio {
				maxBadRatio = bad
			}
			if bad > 6.0/7.0 {
				okBad = false
			}
		}
		tab.AddRow(l, perSize, leavesS.Mean(), pathsS.Mean(), minRatio, ratioS.Mean(),
			fmt.Sprintf("%v", okLemma), fmt.Sprintf("%v", okRemark), maxBadRatio, fmt.Sprintf("%v", okBad))
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"measured ratios sit far above 1/42 and generally above the remark's 1/4, consistent with Lin [L]",
		"bad-leaf fractions stay below the payment argument's 6/7")
	return res
}

// gridScratch is E3's worker-local state: the shared batched injection
// scratch plus the alive predicate LastStageAccess consumes (a closure
// over the scratch, created once per worker, not per trial).
type gridScratch struct {
	*injectScratch
	alive func(v int32) bool
}

// E3GridAccess reproduces Lemma 3 / Fig. 4: in an (l,w)-directed grid, an
// idle input keeps access to a strict majority of the last stage except
// with probability exponentially small in the row count l.
func E3GridAccess(mode Mode) Result {
	res := Result{
		ID:    "E3",
		Title: "Directed-grid access probability (Lemma 3, Fig. 4)",
		Paper: "P[input reaches > half of the grid's last stage] ≥ 1 − c₁·ν·(144ε)^l — failure decays exponentially in the row count l",
	}
	tab := stats.NewTable("l rows", "w stages", "ε", "P[majority access]", "P[fail]", "mean access frac")
	trialsN := mode.trials(400, 4000)
	ls := []int{4, 8, 16, 32}
	if mode == Quick {
		ls = []int{4, 8, 16}
	}
	for _, l := range ls {
		for _, eps := range []float64{0.02, 0.05} {
			an := hammock.NewAccessNetwork(l, 8, true)
			need := l/2 + 1
			newScratch := func() *gridScratch {
				s := &gridScratch{injectScratch: newInjectScratch(an.G, eps)}
				s.alive = func(v int32) bool { return !s.faulty[v] }
				return s
			}
			access := func(s *gridScratch) int {
				s.nextFaulty()
				return an.LastStageAccess(s.alive)
			}
			p := montecarlo.RunBoolWith(montecarlo.Config{Trials: trialsN, Seed: uint64(0xE30000 + l*100)},
				newScratch,
				func(_ *rng.RNG, s *gridScratch) bool { return access(s) >= need })
			frac := montecarlo.RunSampleWith(montecarlo.Config{Trials: trialsN / 4, Seed: uint64(0xE31000 + l*100)},
				newScratch,
				func(_ *rng.RNG, s *gridScratch) float64 { return float64(access(s)) / float64(l) })
			tab.AddRow(l, 8, eps, p.Estimate(), 1-p.Estimate(), frac.Mean())
		}
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"failure probability drops steeply as l grows at fixed ε — the exponential-in-l shape of Lemma 3",
		"the paper's constants (144ε with ε=10⁻⁶) make the bound astronomically small; at our ε the measured decay carries the same shape")
	return res
}

// E4ExpanderFaultTails reproduces Lemmas 4–5: the number of faulty outlets
// of an expanding graph concentrates far below the 7% threshold used in
// the majority-access induction, with an exponentially small tail.
func E4ExpanderFaultTails(mode Mode) Result {
	res := Result{
		ID:    "E4",
		Title: "Faulty outlets of expanding graphs (Lemmas 4–5)",
		Paper: "P[> 0.07·t outlets faulty] ≤ e^(−0.06·t) per expanding graph (at the paper's ε=10⁻⁶, degree 10)",
	}
	tab := stats.NewTable("t", "d", "ε", "E[frac faulty]", "2dε (analytic)", "P[> 7% faulty]", "e^(−0.06t)")
	trialsN := mode.trials(500, 5000)
	for _, t := range []int{64, 256, 1024} {
		for _, eps := range []float64{0.001, 0.005} {
			d := 3
			// Build a standalone bipartite expander as a graph.
			bip := expander.RandomMatchings(t, d, rng.New(uint64(t)))
			gb := newBipartiteGraph(bip)
			threshold := int(0.07 * float64(t))
			newScratch := func() *injectScratch { return newInjectScratch(gb, eps) }
			count := func(s *injectScratch) int { return faultyOutlets(s.nextFaulty(), t) }
			meanS := montecarlo.RunSampleWith(montecarlo.Config{Trials: trialsN, Seed: uint64(0xE40000 + t)},
				newScratch,
				func(_ *rng.RNG, s *injectScratch) float64 { return float64(count(s)) / float64(t) })
			tail := montecarlo.RunBoolWith(montecarlo.Config{Trials: trialsN, Seed: uint64(0xE41000 + t)},
				newScratch,
				func(_ *rng.RNG, s *injectScratch) bool { return count(s) > threshold })
			tab.AddRow(t, d, eps, meanS.Mean(), 2*float64(d)*eps, tail.Estimate(), math.Exp(-0.06*float64(t)))
		}
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"an outlet is faulty when any of its d incident switches fails, so E[fraction] ≈ 1−(1−2ε)^d ≈ 2dε",
		"at these ε the 7% threshold is many standard deviations out: measured tails are zero, matching the e^(−0.06t) regime")
	return res
}

// newBipartiteGraph materializes a Bipartite as a 2t-vertex graph.Graph
// with inlets marked as inputs and outlets as outputs.
func newBipartiteGraph(b *expander.Bipartite) *graph.Graph {
	gb := graph.NewBuilder(b.NumEdges())
	for i := 0; i < b.T; i++ {
		gb.MarkInput(gb.AddVertex())
	}
	for o := 0; o < b.T; o++ {
		gb.MarkOutput(gb.AddVertex())
	}
	b.AddToBuilder(gb, 0, int32(b.T))
	return gb.Freeze()
}

// faultyOutlets counts outlets (vertices t..2t-1) marked in the faulty
// mask.
func faultyOutlets(faulty []bool, t int) int {
	c := 0
	for v := t; v < 2*t; v++ {
		if faulty[v] {
			c++
		}
	}
	return c
}
