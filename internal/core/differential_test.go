package core

import (
	"fmt"
	"testing"

	"ftcsn/internal/benes"
	"ftcsn/internal/circulant"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/hammock"
	"ftcsn/internal/hyperx"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/superconc"
)

// This file is the correctness gate for the block trial pipeline: for a
// seeded grid of (network family, ε, worker count, block size) it runs
// the Evaluator (StartBlock + EvaluateNextInto) against refTrial, an
// independent per-trial reference, and requires bit-identical per-trial
// outcomes and aggregate statistics. Both the harness-stream seeding
// (StartBlock) and the sequential Evaluate seeding (StartBlockSeq) are
// covered.

// refTrial is the per-trial reference. It shares none of the pipeline's
// incremental machinery: every trial redraws the instance from scratch
// (fault.InjectInto), scans every switch for the shorting witness
// (ShortedTerminalsWith), rebuilds the masks from scratch
// (RepairMasksInto), certifies with the per-terminal BFS oracle, and
// churns on a sequential Router that adopts the from-scratch OutAllowed
// that RepairMasksInto builds.
type refTrial struct {
	nw    *Network
	inst  *fault.Instance
	fsc   *fault.Scratch
	orc   *accessOracle
	rt    *route.Router
	cd    netsim.ChurnDriver
	masks Masks
	rep   MajorityReport
}

func newRefTrial(nw *Network) *refTrial {
	rt := route.NewRouter(nw.G)
	return &refTrial{
		nw:   nw,
		inst: fault.NewInstance(nw.G),
		fsc:  fault.NewScratch(nw.G),
		orc:  newAccessOracle(nw),
		rt:   rt,
	}
}

// run evaluates one trial drawing its faults from r, with churn continuing
// on r.
func (rf *refTrial) run(m fault.Model, r *rng.RNG, churnOps int) TrialOutcome {
	fault.InjectInto(rf.inst, m, r)
	out := TrialOutcome{
		FailedSwitches: rf.inst.NumFailed(),
		OpenSwitches:   rf.inst.NumOpen(),
		ClosedSwitches: rf.inst.NumClosed(),
	}
	a, _ := rf.inst.ShortedTerminalsWith(rf.fsc)
	out.Shorted = a >= 0
	RepairMasksInto(rf.inst, &rf.masks)
	rf.orc.majorityAccess(rf.masks, &rf.rep)
	out.MajorityAccess = rf.rep.OK
	out.MinInputAccess = minOf(rf.rep.InputAccess)
	out.MinOutputAccess = minOf(rf.rep.OutputAccess)
	if churnOps > 0 {
		rf.rt.SetMasksShared(rf.masks.VertexOK, rf.masks.EdgeOK, rf.masks.OutAllowed)
		out.ChurnConnects, out.ChurnFailures, out.ChurnPathTotal =
			rf.cd.Run(rf.rt, rf.nw.Inputs(), rf.nw.Outputs(), churnOps, r)
	}
	out.Success = !out.Shorted && out.MajorityAccess && out.ChurnFailures == 0
	return out
}

// refStream returns the reference outcomes of trials 0..n-1 under the
// harness seeding: trial i draws from rng.Stream(seed, i).
func refStream(nw *Network, m fault.Model, seed uint64, n, churnOps int) []TrialOutcome {
	rf := newRefTrial(nw)
	want := make([]TrialOutcome, n)
	var r rng.RNG
	for i := range want {
		r.ReseedStream(seed, uint64(i))
		want[i] = rf.run(m, &r, churnOps)
	}
	return want
}

// diffFamilies returns the networks the differential grid runs over:
// distinct structural families of 𝒩 (paper-default rows, tall grids with
// low-degree expanders, explicit Gabber–Galil expanders, and a ν=2
// instance with a real recursive middle), plus the topology zoo served
// through the graph.Levels contract — a Mirror() image, an
// expander-based superconcentrator, a hammock-substituted Beneš, and the
// DAG-unrolled hyperx and circulant interconnects, each wrapped by
// WrapGraph. The wrapped families deliberately include permuted-sweep
// graphs (vertex IDs not level-sorted) so every differential grid
// exercises the permuted level order, not just the identity order.
func diffFamilies(t testing.TB) map[string]*Network {
	t.Helper()
	fams := map[string]Params{
		"default-nu1":  DefaultParams(1),
		"tall-nu1":     {Nu: 1, Gamma: 0, M: 16, DQ: 2, Seed: 3},
		"explicit-nu1": {Nu: 1, Gamma: 0, M: 4, DQ: 1, Explicit: true, Seed: 1},
		"default-nu2":  DefaultParams(2),
	}
	nws := make(map[string]*Network, len(fams)+5)
	for name, p := range fams {
		nw, err := Build(p)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		nws[name] = nw
	}
	wrap := func(name string, g *graph.Graph) {
		nw, err := WrapGraph(g)
		if err != nil {
			t.Fatalf("wrap %s: %v", name, err)
		}
		nws[name] = nw
	}
	wrap("mirror-nu1", nws["default-nu1"].G.Mirror())
	sc, err := superconc.New(16, 3, 0xD1FF)
	if err != nil {
		t.Fatalf("build superconc-16: %v", err)
	}
	wrap("superconc-16", sc.G)
	bn, err := benes.New(2)
	if err != nil {
		t.Fatalf("build benes(2): %v", err)
	}
	wrap("benes-hammock", hammock.SubstituteEdges(bn.G, 2, 2, false))
	hx, err := hyperx.New([]int{2, 2}, 2)
	if err != nil {
		t.Fatalf("build hyperx-2x2: %v", err)
	}
	wrap("hyperx-2x2", hx.G)
	cc, err := circulant.New(6, []int{1, 2}, 3)
	if err != nil {
		t.Fatalf("build circulant-6: %v", err)
	}
	wrap("circulant-6", cc.G)
	return nws
}

// batchedDiffScratch adapts an Evaluator to the montecarlo BlockStarter
// hook for the differential runs, recording every per-trial outcome.
type batchedDiffScratch struct {
	ev   *Evaluator
	m    fault.Model
	seq  bool
	outs []TrialOutcome // shared, indexed by absolute trial; disjoint writes
}

func (s *batchedDiffScratch) StartBlock(seed, first uint64, n int) {
	if s.seq {
		s.ev.StartBlockSeq(s.m, seed, first, n)
	} else {
		s.ev.StartBlock(s.m, seed, first, n)
	}
}

// TestDifferentialBatchedVsLegacy runs the block pipeline under the
// montecarlo harness against refTrial, per trial and in aggregate.
func TestDifferentialBatchedVsLegacy(t *testing.T) {
	const (
		trials   = 40
		churnOps = 60
		seed     = uint64(0xD1FF)
	)
	epss := []float64{0.0005, 0.01, 0.06}
	workerGrid := []int{1, 3}
	blockGrid := []int{1, 7, 64}

	for name, nw := range diffFamilies(t) {
		for _, eps := range epss {
			m := fault.Symmetric(eps)

			want := refStream(nw, m, seed, trials, churnOps)

			for _, workers := range workerGrid {
				for _, block := range blockGrid {
					label := fmt.Sprintf("%s/eps=%v/w=%d/b=%d", name, eps, workers, block)
					got := make([]TrialOutcome, trials)
					var succ int
					scs := montecarlo.RunWith(
						montecarlo.Config{Trials: trials, Workers: workers, Seed: seed, Block: block},
						func() *batchedDiffScratch {
							return &batchedDiffScratch{ev: NewEvaluator(nw), m: m, outs: got}
						},
						func(_ *rng.RNG, s *batchedDiffScratch, i uint64) {
							s.ev.EvaluateNextInto(&s.outs[i], churnOps)
						})
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: trial %d diverged:\nbatched   %+v\nreference %+v", label, i, got[i], want[i])
						}
					}
					for _, out := range got {
						if out.Success {
							succ++
						}
					}
					var wantSucc int
					for _, out := range want {
						if out.Success {
							wantSucc++
						}
					}
					if succ != wantSucc {
						t.Fatalf("%s: aggregate success %d != reference %d", label, succ, wantSucc)
					}
					_ = scs
				}
			}
		}
	}
}

// TestDifferentialCertificatePath is the grid for churn-free trials
// (EvaluateNextInto with churnOps == 0, the way E5 and E10 run them)
// against the reference's witness and certificate.
func TestDifferentialCertificatePath(t *testing.T) {
	const (
		trials = 60
		seed   = uint64(0xCE47)
	)
	nw, err := Build(DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.001, 0.02} {
		m := fault.Symmetric(eps)
		want := refStream(nw, m, seed, trials, 0)
		for _, block := range []int{5, 32} {
			got := make([]TrialOutcome, trials)
			montecarlo.RunWith(
				montecarlo.Config{Trials: trials, Workers: 2, Seed: seed, Block: block},
				func() *batchedDiffScratch {
					return &batchedDiffScratch{ev: NewEvaluator(nw), m: m, outs: got}
				},
				func(_ *rng.RNG, s *batchedDiffScratch, i uint64) {
					s.ev.EvaluateNextInto(&s.outs[i], 0)
				})
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("eps=%v block=%d: certificate trial %d diverged:\nbatched   %+v\nreference %+v",
						eps, block, i, got[i], want[i])
				}
			}
		}
	}
}

// reportsEqual compares two majority reports field by field, returning a
// description of the first divergence.
func reportsEqual(a, b *MajorityReport) (string, bool) {
	if a.MiddleSize != b.MiddleSize {
		return fmt.Sprintf("MiddleSize %d != %d", a.MiddleSize, b.MiddleSize), false
	}
	if a.OK != b.OK {
		return fmt.Sprintf("OK %v != %v", a.OK, b.OK), false
	}
	if len(a.InputAccess) != len(b.InputAccess) || len(a.OutputAccess) != len(b.OutputAccess) {
		return "access slice lengths differ", false
	}
	for i := range a.InputAccess {
		if a.InputAccess[i] != b.InputAccess[i] {
			return fmt.Sprintf("InputAccess[%d] %d != %d", i, a.InputAccess[i], b.InputAccess[i]), false
		}
	}
	for j := range a.OutputAccess {
		if a.OutputAccess[j] != b.OutputAccess[j] {
			return fmt.Sprintf("OutputAccess[%d] %d != %d", j, a.OutputAccess[j], b.OutputAccess[j]), false
		}
	}
	return "", true
}

// TestDifferentialWordParallelCertifier is the certificate leg of the
// differential harness: across network families × ε × strip widths, the
// word-parallel MajorityAccessInto must produce bit-identical reports
// (per-terminal counts and OK) to the per-terminal BFS oracle. Each trial
// checks three mask shapes: the paper's discard repair, kept current by
// MaskUpdater; E10's edges-only repair (EdgeOK set where the switch is
// normal, nil VertexOK), the one input where a failed switch leaves its
// endpoints usable; and loose masks (random non-terminal discards, nil
// EdgeOK), where only the traversal bytes stop a sweep leaving a
// discarded vertex. Families include n=4 and n=16, so every strip width
// exercises a partial final strip (n not divisible by 64).
func TestDifferentialWordParallelCertifier(t *testing.T) {
	const trialsPerCell = 12
	epss := []float64{0.0005, 0.01, 0.06}
	widths := []int{1, 7, 64}
	for name, nw := range diffFamilies(t) {
		g := nw.G
		nV := g.NumVertices()
		inst := fault.NewInstance(g)
		mu := NewMaskUpdater(g)
		oracle := newAccessOracle(nw)
		var m, edgesOnly, loose Masks
		edgesOnly.EdgeOK = make([]bool, g.NumEdges())
		loose.VertexOK = make([]bool, nV)
		var r rng.RNG
		var want, word MajorityReport
		checkers := make([]*AccessChecker, len(widths))
		for wi, width := range widths {
			checkers[wi] = NewAccessChecker(nw)
			checkers[wi].lanes = width
		}
		check := func(shape string, masks Masks, eps float64, trial int) {
			t.Helper()
			oracle.majorityAccess(masks, &want)
			for wi, width := range widths {
				nw.MajorityAccessInto(checkers[wi], masks, &word)
				if why, ok := reportsEqual(&word, &want); !ok {
					t.Fatalf("%s %s eps=%v trial %d width=%d: word-parallel vs BFS oracle: %s", name, shape, eps, trial, width, why)
				}
			}
		}
		for ei, eps := range epss {
			model := fault.Symmetric(eps)
			for trial := 0; trial < trialsPerCell; trial++ {
				r.ReseedStream(0xBA7C4, uint64(ei*trialsPerCell+trial))
				fault.InjectInto(inst, model, &r)
				mu.Init(inst, &m)
				check("repaired", m, eps, trial)

				for e := range edgesOnly.EdgeOK {
					edgesOnly.EdgeOK[e] = inst.Edge[e] == fault.Normal
				}
				edgesOnly.OutAllowed = g.BuildOutAllowed(edgesOnly.EdgeOK, nil, edgesOnly.OutAllowed)
				check("edges-only", edgesOnly, eps, trial)

				for v := range loose.VertexOK {
					loose.VertexOK[v] = true
				}
				for k := 1 + int(4*eps*float64(nV)); k > 0; k-- {
					if v := int32(r.Intn(nV)); !g.IsTerminal(v) {
						loose.VertexOK[v] = false
					}
				}
				loose.OutAllowed = g.BuildOutAllowed(nil, loose.VertexOK, loose.OutAllowed)
				check("loose", loose, eps, trial)
			}
		}
	}
}

// TestGuideColumnsMatchOutputAccess pins the invariant that lets the
// certificate's output side and the routing guide share one reverse
// reachability: under the same masks, OutputAccess[j] equals the number
// of middle-level vertices whose guide row holds output j. The guide
// admits a terminal slot by the head's own output bit alone, which agrees
// with the certificate because no family has a switch out of an output or
// into an input.
func TestGuideColumnsMatchOutputAccess(t *testing.T) {
	for name, nw := range diffFamilies(t) {
		inst := fault.NewInstance(nw.G)
		ac := NewAccessChecker(nw)
		first, order := ac.lv.First(), ac.lv.Order()
		se := route.NewShardedEngine(nw.G, 1)
		se.SetGuideLimit(64)
		var m Masks
		var rep MajorityReport
		var r rng.RNG
		for ei, eps := range []float64{0, 0.002, 0.02, 0.08} {
			for trial := 0; trial < 10; trial++ {
				r.ReseedStream(0x6C01, uint64(ei*10+trial))
				fault.InjectInto(inst, fault.Symmetric(eps), &r)
				RepairMasksInto(inst, &m)
				nw.MajorityAccessInto(ac, m, &rep)
				se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
				guide, groups := se.GuideWords()
				for j, want := range rep.OutputAccess {
					got := 0
					for p := first[nw.MiddleStage]; p < first[nw.MiddleStage+1]; p++ {
						v := p
						if order != nil {
							v = order[p]
						}
						got += int(guide[int(v)*groups+j>>6] >> (j & 63) & 1)
					}
					if got != want {
						t.Fatalf("%s eps=%v trial %d: output %d held by %d middle guide rows, OutputAccess says %d",
							name, eps, trial, j, got, want)
					}
				}
			}
		}
	}
}

// TestMajorityAccessRefusesForeignChecker: a checker built for another
// network panics, even when the two networks have the same size and so
// the masks pass the byte-length check (a network and its Mirror wrap).
func TestMajorityAccessRefusesForeignChecker(t *testing.T) {
	fams := diffFamilies(t)
	nw, mirror := fams["default-nu1"], fams["mirror-nu1"]
	ac := NewAccessChecker(nw)
	masks := RepairMasks(fault.NewInstance(mirror.G))
	defer func() {
		if recover() == nil {
			t.Fatal("MajorityAccessInto accepted a checker built for another network")
		}
	}()
	var rep MajorityReport
	mirror.MajorityAccessInto(ac, masks, &rep)
}

// TestEvaluatorCertAllocFree: steady-state churn-free trials — diff
// application, incremental masks, the shorting witness, word-parallel
// certification — must not allocate once the evaluator is warm.
func TestEvaluatorCertAllocFree(t *testing.T) {
	nw, err := Build(DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(nw)
	m := fault.Symmetric(0.005)
	var out TrialOutcome
	ev.StartBlock(m, 0xA110C, 0, 400)
	for i := 0; i < 40; i++ {
		ev.EvaluateNextInto(&out, 0)
	}
	avg := testing.AllocsPerRun(100, func() {
		ev.EvaluateNextInto(&out, 0)
	})
	if avg > 0 {
		t.Fatalf("batched certificate trial allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestDifferentialSeqSeeding covers the StartBlockSeq convention used by
// E7/E9 and by Evaluate: trial i seeded rng.New(seedBase+i), churn
// continuing in-stream — against the reference, both as blocks under the
// harness and as one-trial Evaluate calls.
func TestDifferentialSeqSeeding(t *testing.T) {
	const (
		trials   = 30
		churnOps = 50
		seedBase = uint64(0xE7000)
	)
	nw, err := Build(DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	m := fault.Symmetric(0.01)
	want := make([]TrialOutcome, trials)
	rf := newRefTrial(nw)
	ev := NewEvaluator(nw)
	for i := range want {
		want[i] = rf.run(m, rng.New(seedBase+uint64(i)), churnOps)
		if got := ev.Evaluate(m, seedBase+uint64(i), churnOps); got != want[i] {
			t.Fatalf("Evaluate(seed %d) diverged:\nevaluate  %+v\nreference %+v", i, got, want[i])
		}
	}
	for _, block := range []int{3, 16} {
		got := make([]TrialOutcome, trials)
		montecarlo.RunWith(
			montecarlo.Config{Trials: trials, Workers: 2, Seed: seedBase, Block: block},
			func() *batchedDiffScratch {
				return &batchedDiffScratch{ev: NewEvaluator(nw), m: m, seq: true, outs: got}
			},
			func(_ *rng.RNG, s *batchedDiffScratch, i uint64) {
				s.ev.EvaluateNextInto(&s.outs[i], churnOps)
			})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block=%d: seq-seeded trial %d diverged:\nbatched   %+v\nreference %+v", block, i, got[i], want[i])
			}
		}
	}
}

// TestEvaluatorModeMixing: a one-trial Evaluate between blocks leaves the
// later blocks exact (the injector keeps diffing from whatever trial was
// applied last), and Evaluate with trials of a block still pending
// panics instead of silently dropping them.
func TestEvaluatorModeMixing(t *testing.T) {
	nw, err := Build(DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	m := fault.Symmetric(0.02)
	const churnOps = 40
	ev := NewEvaluator(nw)
	rf := newRefTrial(nw)
	var got TrialOutcome
	var r rng.RNG
	for round := 0; round < 3; round++ {
		seed := uint64(1000 + round)
		if got, want := ev.Evaluate(m, seed, churnOps), rf.run(m, rng.New(seed), churnOps); got != want {
			t.Fatalf("round %d: Evaluate diverged:\nevaluate  %+v\nreference %+v", round, got, want)
		}
		first := uint64(round * 4)
		ev.StartBlock(m, 99, first, 4)
		for j := 0; j < 4; j++ {
			ev.EvaluateNextInto(&got, churnOps)
			r.ReseedStream(99, first+uint64(j))
			if want := rf.run(m, &r, churnOps); got != want {
				t.Fatalf("round %d trial %d: block after Evaluate diverged:\nbatched   %+v\nreference %+v", round, j, got, want)
			}
		}
	}

	ev.StartBlock(m, 99, 0, 2)
	ev.EvaluateNextInto(&got, churnOps)
	defer func() {
		if recover() == nil {
			t.Fatal("Evaluate mid-block did not panic")
		}
	}()
	ev.Evaluate(m, 1, churnOps)
}
