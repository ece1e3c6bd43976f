package experiments

import (
	"ftcsn/internal/core"
	"ftcsn/internal/expander"
	"ftcsn/internal/fault"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

// E9Routing reproduces the §4 routing claim: on the repaired network,
// greedy path-finding suffices (zero blocked requests while the
// majority-access certificate holds), and the guided engine routes a
// saturating permutation round after round.
func E9Routing(mode Mode) Result {
	res := Result{
		ID:    "E9",
		Title: "Greedy circuit routing on the repaired network (§4 observations)",
		Paper: "routing needs only a greedy standard path-finding algorithm; no difficult computations are hidden",
	}
	tab := stats.NewTable("ν", "n", "ε", "trials", "churn connects", "blocked", "mean path len")
	trialsN := mode.trials(20, 100)
	nus := []int{1, 2}
	if mode == Full {
		nus = append(nus, 3)
	}
	for _, nu := range nus {
		p := scaledParams(nu)
		nw, err := core.Build(p)
		if err != nil {
			continue
		}
		for _, eps := range []float64{0, 0.002} {
			// StartBlockSeq keeps the historical per-trial seed seedBase+i
			// while the block engine advances trials by diffs.
			seedBase := uint64(0xE90000 + nu*1000)
			scs := montecarlo.RunWith(montecarlo.Config{Trials: trialsN, Seed: seedBase},
				batchEvalScratchFor(nw, fault.Symmetric(eps), true),
				func(_ *rng.RNG, s *batchEvalScratch, _ uint64) {
					s.ev.EvaluateNextInto(&s.out, 200)
					if !s.out.MajorityAccess {
						return // §4's guarantee is conditional on the certificate
					}
					s.churnConn += s.out.ChurnConnects
					s.churnFail += s.out.ChurnFailures
					s.churnPathTotal += s.out.ChurnPathTotal
				})
			t := mergeBatchEval(scs)
			mean := ratio(t.churnPathTotal, t.churnConn-t.churnFail)
			tab.AddRow(nu, p.N(), eps, trialsN, t.churnConn, t.churnFail, mean)
		}
	}
	res.Tables = append(res.Tables, tab)

	// Saturation shape: the guided engine routes a full permutation,
	// repeatedly. The table reports only deterministic columns
	// (established counts) in every mode; wall-clock rates belong to the
	// benchmark baseline (BENCH.json, BenchmarkShardedChurn).
	p := scaledParams(2)
	nw, err := core.Build(p)
	if err == nil {
		thr := stats.NewTable("engine", "requests", "established")
		n := p.N()
		reqs := make([]route.Request, n)
		perm := rng.New(0xE9).Perm(n)
		for i := 0; i < n; i++ {
			reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
		}
		rounds := mode.trials(30, 200)
		se := route.NewShardedEngine(nw.G, 1)
		var resBuf []route.Result
		done := 0
		for rep := 0; rep < rounds; rep++ {
			resBuf = se.ConnectBatch(reqs, resBuf)
			for i := range resBuf {
				if resBuf[i].Path != nil {
					done++
				}
			}
			se.Reset()
		}
		thr.AddRow("guided (live claims)", rounds*n, done)
		res.Tables = append(res.Tables, thr)
	}
	res.Notes = append(res.Notes,
		"whenever the Lemma-6 certificate holds, greedy churn never blocks (blocked = 0): strict nonblockingness is operational, not just structural",
		"the guided engine routes every request of the saturating permutation; that its decisions and paths are the reference sequential router's is pinned by route's differential tests (TestShardedMatchesSequentialChurn, FuzzShardedVsSequential), and throughput is tracked in BENCH.json (BenchmarkShardedChurn), not here")
	return res
}

// E10Ablations measures the design choices DESIGN.md calls out: expander
// degree DQ, grid scale-up γ vs row multiplier M, random vs explicit
// expanders, and the paper's discard-repair rule vs a naive edges-only
// rule (which is unsound under closed failures).
func E10Ablations(mode Mode) Result {
	res := Result{
		ID:    "E10",
		Title: "Design ablations (expander degree, scale-up, construction, repair rule)",
		Paper: "design choices implicit in §6's constants: degree 10, 64·4^γ rows, probabilistic expanders, discard-faulty-and-neighbors repair",
	}
	trialsN := mode.trials(60, 400)
	eps := 0.005

	// (a) Expander degree DQ.
	dq := stats.NewTable("DQ (degree 4·DQ)", "edges", "P[majority access] @ε=0.005")
	for _, d := range []int{1, 2, 3, 4} {
		p := core.Params{Nu: 2, Gamma: 0, M: 8, DQ: d, Seed: 1}
		nw, err := core.Build(p)
		if err != nil {
			continue
		}
		pr := montecarloMajority(nw, eps, trialsN, uint64(0xEA0000+d))
		dq.AddRow(d, core.Accounting(p).Edges, pr)
	}
	res.Tables = append(res.Tables, dq)

	// (b) Terminal-degree scaling: L = M·4^γ via M at fixed ν.
	lm := stats.NewTable("M (rows L)", "edges", "P[survive basic] @ε=0.02", "P[majority access] @ε=0.02")
	for _, m := range []int{2, 4, 8, 16} {
		p := core.Params{Nu: 2, Gamma: 0, M: m, DQ: 3, Seed: 1}
		nw, err := core.Build(p)
		if err != nil {
			continue
		}
		surv := montecarloSurvive(nw, 0.02, trialsN, uint64(0xEB0000+m))
		maj := montecarloMajority(nw, 0.02, trialsN, uint64(0xEC0000+m))
		lm.AddRow(m, core.Accounting(p).Edges, surv, maj)
	}
	res.Tables = append(res.Tables, lm)

	// (c) Random matchings vs explicit Gabber–Galil, both as raw expanders
	// and as complete Network-𝒩 builds.
	exp := stats.NewTable("construction", "t", "degree", "adversarial half-set expansion", "spectral σ₂")
	r := rng.New(0xED)
	gg := expander.GabberGalil(8) // t = 64, degree 5
	rm := expander.RandomMatchings(64, 5, r)
	exp.AddRow("GabberGalil(8)", 64, 5, gg.AdversarialMinNeighbors(32), gg.SpectralGap(5, 60, r.Split(1)))
	exp.AddRow("RandomMatchings", 64, 5, rm.AdversarialMinNeighbors(32), rm.SpectralGap(5, 60, r.Split(2)))
	res.Tables = append(res.Tables, exp)

	expNet := stats.NewTable("Network 𝒩 expanders", "edges", "P[majority access] @ε=0.005")
	for _, explicit := range []bool{false, true} {
		pe := core.Params{Nu: 2, Gamma: 0, M: 4, DQ: core.GabberGalilDegree, Explicit: explicit, Seed: 1}
		nwE, err := core.Build(pe)
		if err != nil {
			continue
		}
		name := "random matchings (d=5/quarter)"
		seedTag := uint64(0)
		if explicit {
			name = "Gabber–Galil (explicit, d=5/quarter)"
			seedTag = 1
		}
		expNet.AddRow(name, core.Accounting(pe).Edges, montecarloMajority(nwE, eps, trialsN, 0xED50+seedTag))
	}
	res.Tables = append(res.Tables, expNet)

	// (d) Repair rule: paper's discard-neighbors vs naive edges-only.
	rep := stats.NewTable("repair rule", "ε", "P[majority access]", "P[unsound merge]")
	p := scaledParams(2)
	nw, err := core.Build(p)
	if err == nil {
		// All per-trial buffers are hoisted and reused across the loop.
		inst := fault.NewInstance(nw.G)
		ac := core.NewAccessChecker(nw)
		var paperMasks, edgeOnly core.Masks
		var repOut core.MajorityReport
		var r rng.RNG
		for _, e := range []float64{0.005, 0.02} {
			var majPaper, majEdges, unsound stats.Proportion
			for i := 0; i < trialsN; i++ {
				r.ReseedStream(0xEE, uint64(i)+uint64(e*1e6))
				fault.InjectInto(inst, fault.Symmetric(e), &r)
				core.RepairMasksInto(inst, &paperMasks)
				nw.MajorityAccessInto(ac, paperMasks, &repOut)
				majPaper.Add(repOut.OK)
				edgesOnlyMasksInto(inst, &edgeOnly)
				nw.MajorityAccessInto(ac, edgeOnly, &repOut)
				majEdges.Add(repOut.OK)
				unsound.Add(hasUsableClosedMerge(inst))
			}
			rep.AddRow("discard neighbors (paper)", e, majPaper.Estimate(), 0.0)
			rep.AddRow("edges-only (naive)", e, majEdges.Estimate(), unsound.Estimate())
		}
		res.Tables = append(res.Tables, rep)
	}
	res.Notes = append(res.Notes,
		"DQ=1 (degree 4) per-quarter matchings are non-expanding (a matching maps c inlets to exactly c outlets) and visibly degrade majority access; DQ≥3 matches the paper's expansion ratio",
		"increasing terminal degree L is what buys survival — the Θ(log n) terminal degree is the essence of the Θ(n log²n) size",
		"Gabber–Galil and random matchings expand comparably at matched degree; the paper cites both ([GG],[BP]) as interchangeable",
		"the edges-only repair 'succeeds' slightly more often but leaves closed-contracted vertex pairs both usable (unsound merge): routed circuits could be electrically joined — exactly why the paper discards neighbors")
	return res
}

func montecarloMajority(nw *core.Network, eps float64, trials int, seed uint64) float64 {
	return montecarlo.RunBoolWith(montecarlo.Config{Trials: trials, Seed: seed},
		batchEvalScratchFor(nw, fault.Symmetric(eps), false),
		func(_ *rng.RNG, s *batchEvalScratch) bool {
			s.ev.EvaluateNextInto(&s.out, 0)
			return s.out.MajorityAccess
		}).Estimate()
}

func montecarloSurvive(nw *core.Network, eps float64, trials int, seed uint64) float64 {
	return montecarlo.RunBoolWith(montecarlo.Config{Trials: trials, Seed: seed},
		batchWitnessScratchFor(nw.G, eps),
		func(_ *rng.RNG, s *batchWitnessScratch) bool {
			s.next()
			return s.survives()
		}).Estimate()
}

// edgesOnlyMasksInto is the naive repair: drop failed switches but keep
// their endpoint vertices usable. It reuses m's edge mask and traversal
// bytes, which it builds from the edge mask alone.
func edgesOnlyMasksInto(inst *fault.Instance, m *core.Masks) {
	g := inst.G
	nE := g.NumEdges()
	if cap(m.EdgeOK) < nE {
		m.EdgeOK = make([]bool, nE)
	} else {
		m.EdgeOK = m.EdgeOK[:nE]
	}
	for e := range m.EdgeOK {
		m.EdgeOK[e] = inst.Edge[e] == fault.Normal
	}
	m.VertexOK = nil
	m.OutAllowed = g.BuildOutAllowed(m.EdgeOK, nil, m.OutAllowed)
}

// hasUsableClosedMerge reports whether some closed switch has both
// endpoints non-terminal and (under edges-only repair) usable — i.e. two
// electrically merged links that the naive rule would happily route
// through separately.
func hasUsableClosedMerge(inst *fault.Instance) bool {
	for e, s := range inst.Edge {
		if s != fault.Closed {
			continue
		}
		u := inst.G.EdgeFrom(int32(e))
		v := inst.G.EdgeTo(int32(e))
		if !inst.G.IsTerminal(u) && !inst.G.IsTerminal(v) {
			return true
		}
	}
	return false
}
