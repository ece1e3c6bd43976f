package experiments

import (
	"math"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/route"
)

// batchWitnessScratch is the worker-local state for experiments that only
// need fault injection plus the paper's failure witnesses: one reusable
// fault instance, witness-check scratch and batch injector per Monte-Carlo
// worker. Its StartBlock hook (montecarlo.BlockStarter) draws a whole
// scheduling block's failure positions in one sweep, and next advances the
// instance trial-to-trial by diffs — bit-identical states to
// fault.InjectInto with the same per-trial streams, without the O(E)
// per-trial Reset.
type batchWitnessScratch struct {
	inst  *fault.Instance
	sc    *fault.Scratch
	bi    *fault.BatchInjector
	model fault.Model
}

func (s *batchWitnessScratch) StartBlock(seed, first uint64, n int) {
	s.bi.FillStream(s.model, seed, first, n)
}

// batchWitnessScratchFor returns a constructor suitable for
// montecarlo.RunBoolWith over graph g under the symmetric model eps.
func batchWitnessScratchFor(g *graph.Graph, eps float64) func() *batchWitnessScratch {
	return func() *batchWitnessScratch {
		return &batchWitnessScratch{
			inst:  fault.NewInstance(g),
			sc:    fault.NewScratch(g),
			bi:    fault.NewBatchInjector(g),
			model: fault.Symmetric(eps),
		}
	}
}

// next applies the next trial of the block to the instance.
func (s *batchWitnessScratch) next() *fault.Instance {
	s.bi.ApplyNext(s.inst)
	return s.inst
}

// shorted runs the Lemma-7 witness on the applied trial from its failure
// list — O(#closed + #terminals) instead of an O(E) edge-state scan.
func (s *batchWitnessScratch) shorted() bool {
	pos, st := s.bi.AppliedFailures()
	a, _ := s.inst.ShortedTerminalsFromList(pos, st, s.sc)
	return a >= 0
}

// survives is SurvivesBasicChecksWith with the shorting half running off
// the failure list; results are identical.
func (s *batchWitnessScratch) survives() bool {
	if s.shorted() {
		return false
	}
	a, _ := s.inst.IsolatedPairWith(s.sc)
	return a < 0
}

// evalScratch is the worker-local state for experiments that run the full
// Theorem-2 pipeline: a core.Evaluator (owning instance, masks, checker,
// router, churn buffers) plus the per-worker accumulators the experiments
// fold into. Accumulators merge by summation / extremum, so reductions are
// order-insensitive regardless of how trials land on workers.
type evalScratch struct {
	ev  *core.Evaluator
	out core.TrialOutcome

	// accumulators
	succ, maj            int
	trials               int
	churnConn, churnFail int
	churnPathTotal       int
	minFrac              float64
}

// injectScratch is the minimal batched worker scratch for experiments
// whose trials need only fault injection plus the faulty-vertex mask
// (E3's grids, E4's expanders): blocks fill via the montecarlo
// BlockStarter hook and nextFaulty advances by diffs.
type injectScratch struct {
	bi     *fault.BatchInjector
	model  fault.Model
	inst   *fault.Instance
	faulty []bool
}

func newInjectScratch(g *graph.Graph, eps float64) *injectScratch {
	return &injectScratch{
		bi:     fault.NewBatchInjector(g),
		model:  fault.Symmetric(eps),
		inst:   fault.NewInstance(g),
		faulty: make([]bool, g.NumVertices()),
	}
}

func (s *injectScratch) StartBlock(seed, first uint64, n int) {
	s.bi.FillStream(s.model, seed, first, n)
}

// nextFaulty applies the next trial of the block and refreshes the
// faulty-vertex mask.
func (s *injectScratch) nextFaulty() []bool {
	s.bi.ApplyNext(s.inst)
	s.faulty = s.inst.FaultyVerticesInto(s.faulty)
	return s.faulty
}

// batchEvalScratch is evalScratch on the batched block engine: StartBlock
// fills the evaluator's injector for each scheduling block, and trial
// bodies consume it with EvaluateNextInto. seq selects the sequential
// rng.New(seed+i) convention (E7/E9's historical seeding) instead of the
// harness streams.
type batchEvalScratch struct {
	evalScratch
	model fault.Model
	seq   bool
}

func (s *batchEvalScratch) StartBlock(seed, first uint64, n int) {
	if s.seq {
		s.ev.StartBlockSeq(s.model, seed, first, n)
	} else {
		s.ev.StartBlock(s.model, seed, first, n)
	}
}

// batchEvalScratchFor returns a constructor for batched evaluator scratch
// (fold results with mergeBatchEval).
//
// Every scratch churns through the guided ShardedEngine: decisions and
// paths are contractually bit-identical to the default sequential router
// (locked by the churn differential harness and the E9 parity rows), and
// the guided probes make churn-heavy experiments markedly faster.
func batchEvalScratchFor(nw *core.Network, m fault.Model, seq bool) func() *batchEvalScratch {
	return func() *batchEvalScratch {
		ev := core.NewEvaluator(nw)
		ev.SetChurnEngine(route.NewShardedEngine(nw.G, 1))
		return &batchEvalScratch{
			evalScratch: evalScratch{ev: ev, minFrac: math.Inf(1)},
			model:       m,
			seq:         seq,
		}
	}
}

// mergeBatchEval is mergeEval over batched scratches.
func mergeBatchEval(scs []*batchEvalScratch) evalScratch {
	flat := make([]*evalScratch, 0, len(scs))
	for _, s := range scs {
		if s != nil {
			flat = append(flat, &s.evalScratch)
		}
	}
	return mergeEval(flat)
}

// mergeEval folds per-worker accumulators into one; nil entries (workers
// that never started, e.g. when Trials is 0) are skipped.
func mergeEval(scs []*evalScratch) evalScratch {
	total := evalScratch{minFrac: math.Inf(1)}
	for _, s := range scs {
		if s == nil {
			continue
		}
		total.trials += s.trials
		total.succ += s.succ
		total.maj += s.maj
		total.churnConn += s.churnConn
		total.churnFail += s.churnFail
		total.churnPathTotal += s.churnPathTotal
		if s.minFrac < total.minFrac {
			total.minFrac = s.minFrac
		}
	}
	return total
}

// ratio returns num/den, or 0 for an empty denominator.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
