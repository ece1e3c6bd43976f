package experiments

import (
	"fmt"

	"ftcsn/internal/benes"
	"ftcsn/internal/butterfly"
	"ftcsn/internal/circulant"
	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/hammock"
	"ftcsn/internal/hyperx"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/multibutterfly"
	"ftcsn/internal/rng"
	"ftcsn/internal/stats"
	"ftcsn/internal/superconc"
	"ftcsn/internal/trees"
)

// E14FamilyZoo compares topology families under the identical fault and
// traffic model through the graph.Levels contract: the paper's network 𝒩
// next to its Mirror() image, a hammock-substituted Beneš (§3's
// reduction), an expander-based superconcentrator, and the DAG-unrolled
// hyperx and circulant interconnects, and the classic connector baselines
// (the doubled-tree, the butterfly, and the Leighton–Maggs multibutterfly)
// — each wrapped by core.WrapGraph so the word-parallel majority-access
// certifier and the sharded churn engine run on all of them, identity
// sweep or permuted sweep alike.
func E14FamilyZoo(mode Mode) Result {
	res := Result{
		ID:    "E14",
		Title: "Topology zoo under one fault and traffic model (graph.Levels contract)",
		Paper: "the certification and routing machinery is stated for 𝒩's stages, but Lemma 6's majority-access argument and §4's greedy routing need only a topological leveling — so every DAG family admits the same measurements",
	}

	type family struct {
		name string
		nw   *core.Network
	}
	var fams []family
	add := func(name string, nw *core.Network, err error) {
		if err == nil && nw != nil {
			fams = append(fams, family{name, nw})
		}
	}

	if nw, err := core.Build(scaledParams(1)); err == nil {
		add("network-𝒩 (ν=1)", nw, nil)
		mnw, merr := core.WrapGraph(nw.G.Mirror())
		add("mirror(𝒩)", mnw, merr)
	}
	if bn, err := benes.New(3); err == nil {
		sub := hammock.SubstituteEdges(bn.G, 2, 2, false)
		nw, werr := core.WrapGraph(sub)
		add("benes⊗hammock(2,2)", nw, werr)
	}
	if sc, err := superconc.New(24, 3, 0xE14); err == nil {
		nw, werr := core.WrapGraph(sc.G)
		add("superconcentrator(24)", nw, werr)
	}
	if hx, err := hyperx.New([]int{3, 2}, 3); err == nil {
		nw, werr := core.WrapGraph(hx.G)
		add("hyperx(3×2, depth 3)", nw, werr)
	}
	if cc, err := circulant.New(8, []int{1, 3}, 4); err == nil {
		nw, werr := core.WrapGraph(cc.G)
		add("circulant(8;1,3, depth 4)", nw, werr)
	}
	// New families append at the END: the certificate and churn seeds are
	// keyed by family index, so reordering would silently reroll the
	// committed tables for everything after the insertion point.
	if tn, err := trees.Doubled(4); err == nil {
		nw, werr := core.WrapGraph(tn.G)
		add("doubled-tree(k=4)", nw, werr)
	}
	if bf, err := butterfly.New(3); err == nil {
		nw, werr := core.WrapGraph(bf.G)
		add("butterfly(k=3)", nw, werr)
	}
	if mb, err := multibutterfly.New(3, 2, 0xE14C); err == nil {
		nw, werr := core.WrapGraph(mb.G)
		add("multibutterfly(k=3,d=2)", nw, werr)
	}

	// Structure: which sweep each family takes. "identity" means vertex
	// IDs are level-sorted, so a sweep position is its vertex ID;
	// "permuted" means positions map to vertices through the cached level
	// order. Every family has a leveling (WrapGraph rejects the rest), so
	// the word-parallel certifier runs on all of them.
	structure := stats.NewTable("family", "in×out", "vertices", "switches", "levels", "sweep")
	for _, f := range fams {
		g := f.nw.G
		lv, err := g.Levels()
		if err != nil {
			continue
		}
		sweep := "permuted"
		if lv.Sorted() {
			sweep = "identity"
		}
		structure.AddRow(f.name,
			fmt.Sprintf("%d×%d", len(g.Inputs()), len(g.Outputs())),
			g.NumVertices(), g.NumEdges(), lv.NumLevels(), sweep)
	}
	res.Tables = append(res.Tables, structure)

	// Majority access to the middle level under symmetric faults — Lemma
	// 6's certificate, word-parallel on every family.
	trialsN := mode.trials(60, 400)
	cert := stats.NewTable("family", "ε", "trials", "P[majority access]")
	for i, f := range fams {
		for j, eps := range []float64{0.002, 0.01} {
			pr := montecarloMajority(f.nw, eps, trialsN, uint64(0xE14A00+i*16+j))
			cert.AddRow(f.name, eps, trialsN, pr)
		}
	}
	res.Tables = append(res.Tables, cert)

	// Sharded churn under the identical random traffic model: random
	// connect/disconnect ops per trial on the repaired network, decisions
	// bit-identical to the sequential router on every family.
	churnOps := 120
	churn := stats.NewTable("family", "ε", "trials", "connects", "blocked", "mean path len")
	for i, f := range fams {
		for j, eps := range []float64{0, 0.005} {
			scs := montecarlo.RunWith(montecarlo.Config{Trials: trialsN, Seed: uint64(0xE14B00 + i*16 + j)},
				batchEvalScratchFor(f.nw, fault.Symmetric(eps), false),
				func(_ *rng.RNG, s *batchEvalScratch, _ uint64) {
					s.ev.EvaluateNextInto(&s.out, churnOps)
					s.churnConn += s.out.ChurnConnects
					s.churnFail += s.out.ChurnFailures
					s.churnPathTotal += s.out.ChurnPathTotal
				})
			t := mergeBatchEval(scs)
			churn.AddRow(f.name, eps, trialsN, t.churnConn, t.churnFail,
				ratio(t.churnPathTotal, t.churnConn-t.churnFail))
		}
	}
	res.Tables = append(res.Tables, churn)

	res.Notes = append(res.Notes,
		"only 𝒩 carries Theorem 2's guarantee; the zoo rows measure how far Lemma 6's certificate and greedy churn degrade on families that were never engineered for it — blocked > 0 outside 𝒩 is expected, not a bug",
		"mirror(𝒩), the superconcentrator, hyperx and circulant all take the permuted sweep (IDs not level-sorted) — before the Levels contract these families had no word-parallel certifier and no sharded fast path at all",
		"families are compared under the same symmetric-ε fault model and the same churn stream; sizes differ, so compare trends (ε response, blocking onset), not absolute rates",
		"the three baselines span the connector spectrum: the doubled-tree (Θ(n) switches, every path through one root, at most one live circuit), the butterfly (unique path per pair, fastest ε decay), and the multibutterfly (constant terminal degree 2d — tolerant of worst-case bounded fault sets but not the paper's random model, per E8)")
	return res
}
