package ftcsn

// Benchmark harness: one benchmark per experiment (E1–E13, the paper's
// tables/figures — see DESIGN.md §4 for the index) plus micro-benchmarks
// of the hot paths (construction, fault injection, repair, access
// certification, routing, and the zero-allocation Evaluator trial engine).
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkE8 -benchmem

import (
	"fmt"
	"testing"

	"ftcsn/internal/core"
	"ftcsn/internal/experiments"
	"ftcsn/internal/fault"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/multibutterfly"
	"ftcsn/internal/netsim"
	"ftcsn/internal/netsim/netsimtest"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

func benchExperiment(b *testing.B, run func(experiments.Mode) experiments.Result) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := run(experiments.Quick)
		if len(res.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// BenchmarkE1_MooreShannonAmplifier regenerates Proposition 1's
// size/depth/failure table.
func BenchmarkE1_MooreShannonAmplifier(b *testing.B) {
	benchExperiment(b, experiments.E1MooreShannon)
}

// BenchmarkE2_TreePathExtraction regenerates the Lemma 1 table (Figs 1–3).
func BenchmarkE2_TreePathExtraction(b *testing.B) {
	benchExperiment(b, experiments.E2TreePaths)
}

// BenchmarkE3_DirectedGridAccess regenerates the Lemma 3 table (Fig 4).
func BenchmarkE3_DirectedGridAccess(b *testing.B) {
	benchExperiment(b, experiments.E3GridAccess)
}

// BenchmarkE4_ExpanderFaultTails regenerates the Lemmas 4–5 table.
func BenchmarkE4_ExpanderFaultTails(b *testing.B) {
	benchExperiment(b, experiments.E4ExpanderFaultTails)
}

// BenchmarkE5_MajorityAccess regenerates the Lemma 6 table.
func BenchmarkE5_MajorityAccess(b *testing.B) {
	benchExperiment(b, experiments.E5MajorityAccess)
}

// BenchmarkE6_TerminalShorting regenerates the Lemma 7 table.
func BenchmarkE6_TerminalShorting(b *testing.B) {
	benchExperiment(b, experiments.E6TerminalShorting)
}

// BenchmarkE7_Theorem2Pipeline regenerates the Theorem 2 accounting and
// end-to-end pipeline tables.
func BenchmarkE7_Theorem2Pipeline(b *testing.B) {
	benchExperiment(b, experiments.E7Theorem2)
}

// BenchmarkE8_LowerBoundCrossover regenerates the Theorem 1 crossover
// table (the headline comparison).
func BenchmarkE8_LowerBoundCrossover(b *testing.B) {
	benchExperiment(b, experiments.E8LowerBoundCrossover)
}

// BenchmarkE9_RoutingThroughput regenerates the §4 routing tables.
func BenchmarkE9_RoutingThroughput(b *testing.B) {
	benchExperiment(b, experiments.E9Routing)
}

// BenchmarkE10_Ablations regenerates the design-ablation tables.
func BenchmarkE10_Ablations(b *testing.B) {
	benchExperiment(b, experiments.E10Ablations)
}

// BenchmarkE11_Substitution regenerates the §3 edge-substitution table.
func BenchmarkE11_Substitution(b *testing.B) {
	benchExperiment(b, experiments.E11Substitution)
}

// BenchmarkE12_Hierarchy regenerates the §2 class-containment table.
func BenchmarkE12_Hierarchy(b *testing.B) {
	benchExperiment(b, experiments.E12Hierarchy)
}

// BenchmarkE13_DepthSizeFrontier regenerates the §2 depth-vs-size survey.
func BenchmarkE13_DepthSizeFrontier(b *testing.B) {
	benchExperiment(b, experiments.E13DepthSizeFrontier)
}

// --- micro-benchmarks ---

func benchNetwork(b *testing.B, nu int) *Network {
	b.Helper()
	nw, err := Build(DefaultParams(nu))
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// BenchmarkBuildNetwork measures constructing Network 𝒩 (n=64).
func BenchmarkBuildNetwork(b *testing.B) {
	p := DefaultParams(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultInjection measures drawing switch states at ε=10⁻³ with
// geometric skipping (n=64 network, ~56k switches).
func BenchmarkFaultInjection(b *testing.B) {
	nw := benchNetwork(b, 3)
	inst := fault.NewInstance(nw.G)
	r := rng.New(1)
	m := fault.Symmetric(1e-3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Reinject(m, r)
	}
}

// BenchmarkRepair measures the discard-rule repair mask computation.
func BenchmarkRepair(b *testing.B) {
	nw := benchNetwork(b, 3)
	inst := fault.Inject(nw.G, fault.Symmetric(1e-3), rng.New(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inst.Repair()
	}
}

// BenchmarkMajorityAccess measures the Lemma-6 certificate (the
// word-parallel sweeps over every terminal, forward and backward) on the
// fault-free n=64 network.
func BenchmarkMajorityAccess(b *testing.B) {
	nw := benchNetwork(b, 3)
	ac := core.NewAccessChecker(nw)
	masks := core.RepairMasks(fault.NewInstance(nw.G))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := nw.MajorityAccess(ac, masks)
		if !rep.OK {
			b.Fatal("fault-free network lost majority access")
		}
	}
}

// BenchmarkGreedyConnect measures one connect+disconnect of the reference
// Router on n=64. A warm-up round primes the path pool, so the timed loop
// allocates nothing: before paths were pooled every Connect allocated its
// result slice (the historical allocs_op: 1 in BENCH.json), and the gate
// now keeps it at zero.
func BenchmarkGreedyConnect(b *testing.B) {
	nw := benchNetwork(b, 3)
	rt := route.NewRouter(nw.G)
	r := rng.New(3)
	n := len(nw.Inputs())
	if _, err := rt.Connect(nw.Inputs()[0], nw.Outputs()[0]); err != nil {
		b.Fatal(err)
	}
	if err := rt.Disconnect(nw.Inputs()[0], nw.Outputs()[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := nw.Inputs()[r.Intn(n)]
		out := nw.Outputs()[r.Intn(n)]
		if _, err := rt.Connect(in, out); err == nil {
			_ = rt.Disconnect(in, out)
		}
	}
}

// benchChurn drives any route.Engine with the operational connect/release
// churn stream (netsimtest.Workload) at 50% circuit occupancy and reports
// operational requests served per second — connect requests plus release
// requests, the two request kinds of the circuit-switching protocol —
// alongside connects/s alone. Every engine
// makes bit-identical decisions on this stream (route's differential
// harness), so the rows compare pure serving throughput.
func benchChurn(b *testing.B, nw *Network, eng route.Engine, batch int) {
	wl := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 0x5AD)
	n := len(nw.Inputs())
	var res []route.Result
	for wl.Live() < n/2 {
		reqs := wl.NextConnects(n/2 - wl.Live())
		res = eng.ConnectBatch(reqs, res)
		wl.Commit(res[:len(reqs)])
	}
	// One round is a connect batch, then as many releases.
	round := func() (connects, released int) {
		reqs := wl.NextConnects(batch)
		res = eng.ConnectBatch(reqs, res)
		wl.Commit(res[:len(reqs)])
		for _, rel := range wl.NextReleases(len(reqs)) {
			if err := eng.Disconnect(rel.In, rel.Out); err != nil {
				b.Fatal(err)
			}
			released++
		}
		return len(reqs), released
	}
	// The fill above only connects, so warm one full round before the
	// timer: the first releases stock the engine's path pool, which the
	// timed rounds then recycle.
	round()
	served := 0
	connects := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, released := round()
		connects += k
		served += k + released
	}
	b.StopTimer()
	el := b.Elapsed().Seconds()
	b.ReportMetric(float64(served)/el, "req/s")
	b.ReportMetric(float64(connects)/el, "connect/s")
}

func benchShardedChurn(b *testing.B, nw *Network, batch int) {
	benchChurn(b, nw, route.NewShardedEngine(nw.G, 1), batch)
}

// BenchmarkOpenLoopServe measures the open-loop serving path end to end —
// traffic generation, the virtual-clock event loop with its departure
// heap, batched ConnectBatch serving, and per-event SLO accounting — on
// the n=16 network at ~1.5× overload (rejections exercised). Reported as
// events/s (arrivals + departures); the CI-gated number (BENCH.json)
// pins both throughput and the loop's zero steady-state allocations.
func BenchmarkOpenLoopServe(b *testing.B) {
	nw := benchNetwork(b, 2)
	se := route.NewShardedEngine(nw.G, 1)
	const seed = 0x0551
	src := netsim.NewTrafficSource(seed,
		netsim.NewPoisson(6.0),
		netsim.NewExpHolding(4.0),
		netsim.NewUniformPattern(nw.Inputs(), nw.Outputs()))
	var l netsim.Loop
	var slo stats.SLO
	cfg := netsim.ServeConfig{MaxArrivals: 4096}
	run := func() {
		src.Reset(seed)
		se.Reset()
		slo = stats.SLO{}
		if err := l.Serve(se, src, cfg, &slo); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the loop scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	sn := slo.Snapshot()
	events := sn.Offered + sn.Departed
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkShardedChurn drives the guided engine through operational
// churn on the n=16 network — the E9 routing workload scale. The req/s
// metric is the CI-gated throughput number (see BENCH.json); the
// sub-benchmark keeps its shards=1 name so its committed row keeps gating.
func BenchmarkShardedChurn(b *testing.B) {
	nw := benchNetwork(b, 2)
	n := len(nw.Inputs())
	b.Run("shards=1", func(b *testing.B) {
		benchShardedChurn(b, nw, n/2)
	})
}

// BenchmarkShardedChurnN64 is the same churn on the n=64 network, where
// the word-parallel output-reachability guide carries the probe cost
// (blind depth-first hunting costs ~2.9µs/connect here; guided, ~0.6µs).
func BenchmarkShardedChurnN64(b *testing.B) {
	nw := benchNetwork(b, 3)
	n := len(nw.Inputs())
	b.Run("shards=1", func(b *testing.B) {
		benchShardedChurn(b, nw, n/2)
	})
}

// BenchmarkShardedChurnParallel is n=256 churn at 50% occupancy with
// 128-connect batches, the largest batches any benchmark serves. The
// "router" row is the sequential Router driven through the same Engine
// seam: the unguided hunt the guided engine's pruning is measured
// against. Both rows keep the names their committed BENCH.json rows gate.
func BenchmarkShardedChurnParallel(b *testing.B) {
	nw := benchNetwork(b, 4)
	n := len(nw.Inputs())
	b.Run("router", func(b *testing.B) {
		benchChurn(b, nw, route.NewRouter(nw.G), n/2)
	})
	b.Run("shards=1", func(b *testing.B) {
		benchShardedChurn(b, nw, n/2)
	})
}

// BenchmarkEvaluatorBatchTrial measures one full Theorem-2 trial (inject →
// discard repair → shorting witness → majority-access certificate →
// 120-op churn) on the zero-allocation Evaluator, n=64: failure positions
// for 64-trial blocks drawn in one sweep, per-trial diff application,
// incremental repair-mask maintenance, churn on the default Router.
func BenchmarkEvaluatorBatchTrial(b *testing.B) {
	nw := benchNetwork(b, 3)
	ev := NewEvaluator(nw)
	m := fault.Symmetric(1e-3)
	var out core.TrialOutcome
	const block = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%block == 0 {
			ev.StartBlock(m, 7, uint64(i), block)
		}
		ev.EvaluateNextInto(&out, 120)
	}
}

// BenchmarkEvaluatorShardedChurnTrial is BenchmarkEvaluatorBatchTrial with
// the churn phase driven through route.ShardedEngine via the Engine seam
// (core.Evaluator.SetChurnEngine): the batch-shaped op stream is
// bit-identical to the sequential-router churn (netsim.ChurnDriver, the
// core differential harness), so the delta is pure serving speed — chiefly
// the engine's per-epoch output-reachability guide pruning the n=64 probe
// cost. The acceptance gate for the engine-under-Evaluator seam is ≥1.5×
// over BenchmarkEvaluatorBatchTrial on the reference box.
func BenchmarkEvaluatorShardedChurnTrial(b *testing.B) {
	nw := benchNetwork(b, 3)
	b.Run("shards=1", func(b *testing.B) {
		benchGuidedChurnTrial(b, nw)
	})
}

// benchGuidedChurnTrial measures one full Theorem-2 trial on nw with the
// churn phase served by the guided engine.
func benchGuidedChurnTrial(b *testing.B, nw *Network) {
	ev := NewEvaluator(nw)
	ev.SetChurnEngine(route.NewShardedEngine(nw.G, 1))
	m := fault.Symmetric(1e-3)
	var out core.TrialOutcome
	const block = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%block == 0 {
			ev.StartBlock(m, 7, uint64(i), block)
		}
		ev.EvaluateNextInto(&out, 120)
	}
}

// BenchmarkEvaluatorBatchCertTrial measures one churn-free trial
// (inject → discard repair → shorting witness → majority-access
// certificate; EvaluateNextInto with churnOps == 0, the E5 and E10 trial)
// on the block pipeline, n=64: incremental repair masks carry the
// CSR-slot traversal bytes the word-parallel certificate reads
// (core.AccessChecker — all terminals in O(E·n/64) word operations).
// Its reports match the per-terminal BFS oracle of core's tests (see
// TestDifferentialWordParallelCertifier).
func BenchmarkEvaluatorBatchCertTrial(b *testing.B) {
	nw := benchNetwork(b, 3)
	ev := NewEvaluator(nw)
	m := fault.Symmetric(1e-3)
	var out core.TrialOutcome
	const block = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%block == 0 {
			ev.StartBlock(m, 7, uint64(i), block)
		}
		ev.EvaluateNextInto(&out, 0)
	}
}

// benchZooNetwork builds the permuted-sweep benchmark family: a
// DAG-unrolled HyperX (8×8 routers, 4 hops) behind WrapGraph. Its vertex
// IDs are deliberately not level-sorted, so every sweep below maps
// positions to vertices through the cached graph.Levels order — the path
// every non-staged topology takes.
func benchZooNetwork(b *testing.B) *Network {
	b.Helper()
	hx, err := NewHyperX([]int{8, 8}, 4)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := WrapGraph(hx.G)
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// BenchmarkZooBatchCertTrial is BenchmarkEvaluatorBatchCertTrial (a
// churn-free trial, witness included) on the permuted-sweep HyperX family
// (64 inputs — one full word-parallel lane strip): it gates the
// level-ordered traversal of the word certifier, which before the Levels
// contract fell back to 2n per-terminal BFS sweeps on any non-staged
// graph.
func BenchmarkZooBatchCertTrial(b *testing.B) {
	nw := benchZooNetwork(b)
	ev := NewEvaluator(nw)
	m := fault.Symmetric(1e-3)
	var out core.TrialOutcome
	const block = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%block == 0 {
			ev.StartBlock(m, 7, uint64(i), block)
		}
		ev.EvaluateNextInto(&out, 0)
	}
}

// BenchmarkZooShardedChurnTrial is BenchmarkEvaluatorShardedChurnTrial on
// the permuted-sweep HyperX family: the guided engine's reachability guide
// keys off topological levels, so the batch-shaped churn serves
// non-staged topologies too.
func BenchmarkZooShardedChurnTrial(b *testing.B) {
	nw := benchZooNetwork(b)
	b.Run("shards=1", func(b *testing.B) {
		benchGuidedChurnTrial(b, nw)
	})
}

// BenchmarkMonteCarloCertificateEngine is the churn-free variant of
// BenchmarkMonteCarloTheorem2Engine: an experiment-scale (256-trial,
// all-core) Lemma-6 estimate — the E5 workload, shorting witness
// included — on the batched engine with the word-parallel certifier.
// n=64: one full 64-lane strip per sweep, the scale where certification
// dominates the trial.
func BenchmarkMonteCarloCertificateEngine(b *testing.B) {
	nw := benchNetwork(b, 3)
	m := fault.Symmetric(0.002)
	cfg := montecarlo.Config{Trials: 256, Seed: 0xBE}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := montecarlo.RunBoolWith(cfg,
			func() *theorem2Scratch { return &theorem2Scratch{ev: NewEvaluator(nw), m: m} },
			func(r *rng.RNG, s *theorem2Scratch) bool {
				s.ev.EvaluateNextInto(&s.out, 0)
				return s.out.MajorityAccess
			})
		if p.Trials != cfg.Trials {
			b.Fatal("wrong trial count")
		}
	}
}

// BenchmarkEvaluateLegacy is the one-shot Network.Evaluate (a fresh
// Evaluator, hence fresh buffers, every trial), kept as the before/after
// baseline for holding an Evaluator.
func BenchmarkEvaluateLegacy(b *testing.B) {
	nw := benchNetwork(b, 3)
	m := fault.Symmetric(1e-3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nw.Evaluate(m, uint64(i), 120)
	}
}

// theorem2Scratch is the worker scratch of the batched Monte-Carlo
// benchmarks: its StartBlock hook fills the evaluator's fault-injection
// block, and trials consume it diff-by-diff.
type theorem2Scratch struct {
	ev  *Evaluator
	m   fault.Model
	out TrialOutcome
}

func (s *theorem2Scratch) StartBlock(seed, first uint64, n int) {
	s.ev.StartBlock(s.m, seed, first, n)
}

// BenchmarkMonteCarloTheorem2Engine runs an experiment-scale (256-trial,
// all-core) Theorem-2 Monte-Carlo estimate on the batched block engine:
// per-worker Evaluators, block-filled fault injection, incremental repair
// masks, zero steady-state allocation.
func BenchmarkMonteCarloTheorem2Engine(b *testing.B) {
	nw := benchNetwork(b, 2)
	m := fault.Symmetric(0.002)
	cfg := montecarlo.Config{Trials: 256, Seed: 0xBE}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := montecarlo.RunBoolWith(cfg,
			func() *theorem2Scratch { return &theorem2Scratch{ev: NewEvaluator(nw), m: m} },
			func(r *rng.RNG, s *theorem2Scratch) bool {
				s.ev.EvaluateNextInto(&s.out, 120)
				return s.out.Success
			})
		if p.Trials != cfg.Trials {
			b.Fatal("wrong trial count")
		}
	}
}

// BenchmarkWitnessChecks measures the Lemma-7 + isolation witness pair on
// the reusable fault.Scratch (the E8 survival hot path), n=16.
func BenchmarkWitnessChecks(b *testing.B) {
	nw := benchNetwork(b, 2)
	inst := fault.NewInstance(nw.G)
	sc := fault.NewScratch(nw.G)
	r := rng.New(8)
	m := fault.Symmetric(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Reinject(m, r)
		_ = inst.SurvivesBasicChecksWith(sc)
	}
}

// BenchmarkShortedTerminals measures the Lemma-7 union-find check.
func BenchmarkShortedTerminals(b *testing.B) {
	nw := benchNetwork(b, 3)
	inst := fault.Inject(nw.G, fault.Symmetric(0.01), rng.New(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = inst.ShortedTerminals()
	}
}

// BenchmarkIsolatedPair measures the all-pairs conductive reach check.
func BenchmarkIsolatedPair(b *testing.B) {
	nw := benchNetwork(b, 2)
	inst := fault.Inject(nw.G, fault.Symmetric(0.01), rng.New(6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = inst.IsolatedPair()
	}
}

// BenchmarkIncrementalGuideEpoch is the big-n tier for the incrementally
// maintained output-reachability guide: a multibutterfly on n=4096
// terminals (13 columns, ~53k vertices, ~190k switches, 64 guide words per
// vertex under SetGuideLimit). Each diff=k iteration applies a fixed
// k-switch fault diff and reverts it — two guide epochs through
// MasksChangedDiff's seeded reverse-cone worklist — so per-epoch cost
// scales with the diff size and the cone it actually dirties, not with E.
// The rebuild row is the identical apply+revert driven through the
// MasksChanged full sweep: the O(E·groups) denominator of the tentpole's
// ≥10× single-fault target. Steady state must not allocate (cpu=1 gate).
func BenchmarkIncrementalGuideEpoch(b *testing.B) {
	mb, err := multibutterfly.New(12, 2, 0xB16B00)
	if err != nil {
		b.Fatal(err)
	}
	g := mb.G
	se := route.NewShardedEngine(g, 1)
	inst := fault.NewInstance(g)
	mu := core.NewMaskUpdater(g)
	var m core.Masks
	mu.Init(inst, &m)
	se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	se.SetGuideLimit(64)
	if w, groups := se.GuideWords(); w == nil || groups != 64 {
		b.Fatalf("guide not built at full width: %d groups", groups)
	}

	// Fixed diffs: k switches spread evenly across the stages, so the
	// reverse cones start at different levels of the same instance.
	makeDiff := func(k int) []int32 {
		diff := make([]int32, k)
		stride := g.NumEdges() / k
		for i := range diff {
			diff[i] = int32(i*stride + i)
		}
		return diff
	}
	setAll := func(diff []int32, s fault.State) {
		for _, e := range diff {
			inst.SetState(e, s)
		}
	}
	epoch := func(diff []int32, notify func(edges []int32)) {
		setAll(diff, fault.Open)
		notify(mu.Apply(inst, &m, diff))
		setAll(diff, fault.Normal)
		notify(mu.Apply(inst, &m, diff))
	}

	for _, k := range []int{1, 16} {
		b.Run(fmt.Sprintf("diff=%d", k), func(b *testing.B) {
			diff := makeDiff(k)
			incremental := func(edges []int32) { se.MasksChangedDiff(mu.ChangedVertices(), edges) }
			epoch(diff, incremental) // warm the worklist and updater scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch(diff, incremental)
			}
		})
	}
	b.Run("rebuild", func(b *testing.B) {
		diff := makeDiff(1)
		rebuild := func([]int32) { se.MasksChanged() }
		epoch(diff, rebuild)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch(diff, rebuild)
		}
	})
}
