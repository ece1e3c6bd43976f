package experiments

import (
	"fmt"

	"ftcsn/internal/benes"
	"ftcsn/internal/butterfly"
	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/multibutterfly"
	"ftcsn/internal/rng"
	"ftcsn/internal/stats"
)

// scaledParams are the standard materialized-𝒩 parameters per ν used
// across E5–E10: FIXED terminal degree L = 8, which deliberately does NOT
// follow the paper's L = Θ(log n) scaling (used to expose the role of L in
// the ablations).
func scaledParams(nu int) core.Params {
	return core.Params{Nu: nu, Gamma: 0, M: 8, DQ: 3, Seed: 1}
}

// paperScaledParams follow the paper's scaling law with laptop-size
// constants: terminal degree L = M·4^γ = 8ν grows linearly in log₄n, the
// scaled analogue of the paper's 64·4^γ ≈ 64·34ν. This is the family for
// which Theorem 2's (ε,δ) property holds as n grows.
func paperScaledParams(nu int) core.Params {
	return core.Params{Nu: nu, Gamma: 0, M: 8 * nu, DQ: 3, Seed: 1}
}

// E5MajorityAccess reproduces Lemma 6 / Corollary 2: after injecting
// faults and applying the discard repair, every idle terminal of 𝒩 keeps
// access to a strict majority of the middle stage, with probability → 1.
func E5MajorityAccess(mode Mode) Result {
	res := Result{
		ID:    "E5",
		Title: "Majority access of Network 𝒩 after repair (Lemma 6, Corollary 2)",
		Paper: "𝒩 is a majority-access network (and so is its mirror) except with probability ≤ c₁ν(144ε)^(64·4^γ) + ν(2/e)^(2ν)",
	}
	tab := stats.NewTable("ν", "n", "L", "ε", "P[majority access]", "min access frac seen")
	trialsN := mode.trials(60, 400)
	nus := []int{1, 2}
	if mode == Full {
		nus = append(nus, 3)
	}
	for _, nu := range nus {
		p := scaledParams(nu)
		nw, err := core.Build(p)
		var lv *graph.Levels
		if err == nil {
			lv, err = nw.G.Levels()
		}
		if err != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("ν=%d: %v", nu, err))
			continue
		}
		first := lv.First()
		mid := float64(first[nw.MiddleStage+1] - first[nw.MiddleStage])
		for _, eps := range []float64{0.001, 0.005, 0.02} {
			// Per-worker batched evaluators and per-worker minima: blocks
			// of fault draws are filled at once (StartBlock) and consumed
			// by diffs, and the extremum is folded in the worker's scratch
			// and merged afterwards, so no trial races on shared state.
			scs := montecarlo.RunWith(montecarlo.Config{Trials: trialsN, Seed: uint64(0xE50000 + nu*100)},
				batchEvalScratchFor(nw, fault.Symmetric(eps), false),
				func(_ *rng.RNG, s *batchEvalScratch, _ uint64) {
					s.ev.EvaluateNextInto(&s.out, 0)
					s.trials++
					if s.out.MajorityAccess {
						s.maj++
					}
					if f := worstOutcomeFrac(s.out, mid); f < s.minFrac {
						s.minFrac = f
					}
				})
			t := mergeBatchEval(scs)
			tab.AddRow(nu, p.N(), p.L(), eps, ratio(t.maj, t.trials), t.minFrac)
		}
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"fault-free access is 100% of the middle stage; small ε erodes it only marginally — the induction of Lemma 6 has wide margins",
		"minFrac is the worst idle-terminal access fraction observed across all trials")
	return res
}

// worstOutcomeFrac is the worst terminal access fraction recorded in a
// trial outcome.
func worstOutcomeFrac(out core.TrialOutcome, middleSize float64) float64 {
	return float64(min(out.MinInputAccess, out.MinOutputAccess)) / middleSize
}

// E6TerminalShorting reproduces Lemma 7: the probability that closed
// failures contract two terminals into one node decays like (cε)^(2ν) —
// doubling ν squares the failure probability.
func E6TerminalShorting(mode Mode) Result {
	res := Result{
		ID:    "E6",
		Title: "Terminal shorting through closed switches (Lemma 7)",
		Paper: "P[two terminals contract] ≤ c₂ν²(160ε)^(2ν): exponentially small in the terminal separation 2ν",
	}
	tab := stats.NewTable("ν", "n", "ε", "P[shorted]", "shortest terminal-terminal distance")
	trialsN := mode.trials(300, 3000)
	for _, nu := range []int{1, 2} {
		p := scaledParams(nu)
		nw, err := core.Build(p)
		if err != nil {
			continue
		}
		// Terminal separation: any input-input path runs down one grid and
		// up another: ≥ 2ν switches... measured exactly:
		minDist := terminalMinDistance(nw.G)
		for _, eps := range []float64{0.1, 0.2, 0.3} {
			pr := montecarlo.RunBoolWith(montecarlo.Config{Trials: trialsN, Seed: uint64(0xE60000 + nu*10)},
				batchWitnessScratchFor(nw.G, eps),
				func(_ *rng.RNG, s *batchWitnessScratch) bool {
					s.next()
					return s.shorted()
				})
			tab.AddRow(nu, p.N(), eps, pr.Estimate(), minDist)
		}
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"shorting needs a chain of ≥ distance-many closed switches, so at fixed ε the rate falls sharply with ν (compare rows across ν)",
		"measurable rates require ε far above the paper's 10⁻⁶; the decay-in-ν shape is what Lemma 7 asserts")
	return res
}

// terminalMinDistance returns the smallest undirected distance between two
// distinct terminals.
func terminalMinDistance(g *graph.Graph) int {
	terms := append(append([]int32(nil), g.Inputs()...), g.Outputs()...)
	best := -1
	for i, t := range terms {
		dist := g.UndirectedDistances(t)
		for _, u := range terms[i+1:] {
			if d := dist[u]; d >= 0 && (best < 0 || int(d) < best) {
				best = int(d)
			}
		}
	}
	return best
}

// E7Theorem2 reproduces Theorem 2 in both of its aspects: (a) the
// closed-form size/depth accounting of the paper-constant construction
// against the claimed 49n(log₄n)² and 5log₄n, and (b) the end-to-end
// fault-tolerance pipeline on materialized scaled instances: inject →
// discard repair → majority-access certificate → greedy churn.
func E7Theorem2(mode Mode) Result {
	res := Result{
		ID:    "E7",
		Title: "Theorem 2: Θ(n log²n)-size, Θ(log n)-depth fault-tolerant nonblocking networks",
		Paper: "an explicit (10⁻⁶,δ)-nonblocking n-network with ≤ 49n(log₄n)² edges and 5log₄n depth, for arbitrarily small δ",
	}
	acct := stats.NewTable("ν", "n", "γ", "edges (faithful)", "edges (paper claim 1408ν4^(ν+γ))",
		"49n(log₄n)²", "edges/(n·ν²)", "depth 4ν", "5log₄n")
	for nu := 1; nu <= 8; nu++ {
		pa := core.PaperAccounting(nu)
		acct.AddRow(nu, pa.N, pa.Gamma, pa.EdgesFaithful, pa.EdgesClaimed, pa.Theorem2Bound,
			float64(pa.EdgesFaithful)/(float64(pa.N)*float64(nu*nu)),
			pa.DepthFaithful, pa.Theorem2DepthBound)
	}
	res.Tables = append(res.Tables, acct)

	pipe := stats.NewTable("ν", "n", "L", "edges", "depth", "ε", "P[success]", "P[majority]", "churn fail rate")
	trialsN := mode.trials(40, 300)
	nus := []int{1, 2}
	if mode == Full {
		nus = append(nus, 3)
	}
	for _, nu := range nus {
		p := paperScaledParams(nu)
		nw, err := core.Build(p)
		if err != nil {
			continue
		}
		a := core.Accounting(p)
		for _, eps := range []float64{0.0005, 0.002, 0.01} {
			// Per-worker batched evaluators; StartBlockSeq keeps the
			// historical per-trial seed 0xE70000+nu*1000+i.
			seedBase := uint64(0xE70000 + nu*1000)
			scs := montecarlo.RunWith(montecarlo.Config{Trials: trialsN, Seed: seedBase},
				batchEvalScratchFor(nw, fault.Symmetric(eps), true),
				func(_ *rng.RNG, s *batchEvalScratch, _ uint64) {
					s.ev.EvaluateNextInto(&s.out, 120)
					s.trials++
					if s.out.Success {
						s.succ++
					}
					if s.out.MajorityAccess {
						s.maj++
					}
					s.churnConn += s.out.ChurnConnects
					s.churnFail += s.out.ChurnFailures
				})
			t := mergeBatchEval(scs)
			pipe.AddRow(nu, p.N(), p.L(), a.Edges, a.Depth, eps,
				ratio(t.succ, t.trials), ratio(t.maj, t.trials), ratio(t.churnFail, t.churnConn))
		}
	}
	res.Tables = append(res.Tables, pipe)
	res.Notes = append(res.Notes,
		"ACCOUNTING DISCREPANCY: the faithful construction has (1536ν−128)·4^(ν+γ) switches vs the paper's stated 1408ν·4^(ν+γ) (a factor-2 slip in the paper's grid term), and NEITHER is ≤ 49n(log₄n)²: with 4^γ ≤ 136ν the construction gives ≤ ~209000·n·ν², so Theorem 2's constant 49 cannot follow from this construction as printed; the Θ(n log²n) SHAPE (edges/(n·ν²) bounded) is what we verify",
		"depth 4ν of the materialized network is within the theorem's 5log₄n bound",
		"pipeline success → 1 as ε → 0 at every ν, and failures at fixed small ε do not grow with ν over the measured range — the (ε,δ) property")
	return res
}

// E8LowerBoundCrossover reproduces Theorem 1 as an empirical crossover:
// all Θ(n log n) baselines (Beneš, butterfly, multibutterfly) have
// survival probability → 0 as n grows at fixed ε, while the Θ(n log²n)
// Network 𝒩 holds near 1; alongside, the Theorem-1 size/depth bounds and
// zone analysis.
func E8LowerBoundCrossover(mode Mode) Result {
	res := Result{
		ID:    "E8",
		Title: "Lower bound and the Θ(n log n) vs Θ(n log²n) crossover (Theorem 1, Lemma 2)",
		Paper: "a (1/4,1/2)-n-superconcentrator needs ≥ n(log₂n)²/2688 switches and ≥ (1/6)log₂n depth; constant-terminal-degree networks cannot be fault-tolerant",
	}
	eps := 0.01
	trialsN := mode.trials(150, 1000)
	tab := stats.NewTable("network", "n", "size", "depth", "term degree",
		"P[survive] @ε=0.01", "Thm1 size bound", "size/bound")
	type row struct {
		name string
		g    *graph.Graph
	}
	var rows []row
	ks := []int{2, 4, 6}
	if mode == Full {
		ks = append(ks, 8)
	}
	for _, k := range ks {
		bn, _ := benes.New(k)
		rows = append(rows, row{fmt.Sprintf("benes(n=%d)", bn.N), bn.G})
		bf, _ := butterfly.New(k)
		rows = append(rows, row{fmt.Sprintf("butterfly(n=%d)", bf.N), bf.G})
		mb, _ := multibutterfly.New(k, 2, 5)
		rows = append(rows, row{fmt.Sprintf("multibutterfly(n=%d,d=2)", mb.N), mb.G})
	}
	nus := []int{1, 2}
	if mode == Full {
		nus = append(nus, 3)
	}
	for _, nu := range nus {
		p := paperScaledParams(nu)
		nw, err := core.Build(p)
		if err == nil {
			rows = append(rows, row{fmt.Sprintf("network-N(n=%d,L=%d)", p.N(), p.L()), nw.G})
		}
	}
	for _, rw := range rows {
		n := len(rw.g.Inputs())
		depth, _ := rw.g.Depth()
		termDeg := rw.g.OutDegree(rw.g.Inputs()[0])
		surv := montecarlo.RunBoolWith(montecarlo.Config{Trials: trialsN, Seed: 0xE80000},
			batchWitnessScratchFor(rw.g, eps),
			func(_ *rng.RNG, s *batchWitnessScratch) bool {
				s.next()
				return s.survives()
			})
		bound := core.LowerBoundSize(n)
		tab.AddRow(rw.name, n, rw.g.NumEdges(), depth, termDeg,
			surv.Estimate(), bound, float64(rw.g.NumEdges())/bound)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"survival here is the necessary r=1 superconcentrator condition (no isolated pair, no shorted terminals) — an upper bound on containing any of the three network classes",
		"Beneš/butterfly/multibutterfly survival falls toward 0 as n grows (terminal degree constant); Network 𝒩's terminal degree L grows, holding survival near 1: the crossover Theorem 1 mandates",
		"see internal/lowerbound for the good-input and zone-size certificates behind the (1/2688)n(log₂n)² bound")
	return res
}
