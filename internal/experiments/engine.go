package experiments

import (
	"math"

	"ftcsn/internal/arena"
	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// churnShards is the shard count of the experiment pipeline's churn
// engine. Sharded decisions are shard-count-independent, so the value
// trades only speed, never output.
const churnShards = 4

// witnessScratch is the worker-local state for experiments that only need
// fault injection plus the paper's failure witnesses: one reusable fault
// instance and one witness-check scratch per Monte-Carlo worker.
type witnessScratch struct {
	inst *fault.Instance
	sc   *fault.Scratch
}

// witnessScratchFor returns a constructor suitable for
// montecarlo.RunBoolWith over graph g.
func witnessScratchFor(g *graph.Graph) func() *witnessScratch {
	return func() *witnessScratch {
		return &witnessScratch{inst: fault.NewInstance(g), sc: fault.NewScratch(g)}
	}
}

// reinject redraws the worker's instance under the symmetric model.
func (s *witnessScratch) reinject(eps float64, r *rng.RNG) *fault.Instance {
	fault.InjectInto(s.inst, fault.Symmetric(eps), r)
	return s.inst
}

// batchWitnessScratch is witnessScratch on the batched injection engine:
// its StartBlock hook (montecarlo.BlockStarter) draws a whole scheduling
// block's failure positions in one sweep, and next advances the instance
// trial-to-trial by diffs — bit-identical states to reinject with the
// same per-trial streams, without the O(E) per-trial Reset.
type batchWitnessScratch struct {
	witnessScratch
	bi    *fault.BatchInjector
	model fault.Model

	// pooled backing (nil when unpooled): released by release() after the
	// run, recycling the O(V)/O(E) buffers for the sweep's next network.
	pool *core.EvaluatorPool
	a    *arena.Arena
}

func (s *batchWitnessScratch) StartBlock(seed, first uint64, n int) {
	s.bi.FillStream(s.model, seed, first, n)
}

// release returns the scratch's arena to the pool (no-op when unpooled or
// nil). The scratch must not be used afterwards.
func (s *batchWitnessScratch) release() {
	if s == nil || s.pool == nil {
		return
	}
	pool, a := s.pool, s.a
	s.pool, s.a = nil, nil
	s.sc, s.bi = nil, nil
	pool.Put(a)
}

// batchWitnessScratchFor returns a constructor suitable for
// montecarlo.RunBoolWith over graph g under the symmetric model eps,
// drawing buffers from pool when non-nil (release with release()).
func batchWitnessScratchFor(pool *core.EvaluatorPool, g *graph.Graph, eps float64) func() *batchWitnessScratch {
	return func() *batchWitnessScratch {
		var a *arena.Arena
		if pool != nil {
			a = pool.Get()
		}
		return &batchWitnessScratch{
			witnessScratch: witnessScratch{inst: fault.NewInstanceIn(g, a), sc: fault.NewScratchIn(g, a)},
			bi:             fault.NewBatchInjectorIn(g, a),
			model:          fault.Symmetric(eps),
			pool:           pool,
			a:              a,
		}
	}
}

// releaseWitnessScratches returns every pooled witness scratch's arena.
func releaseWitnessScratches(scs []*batchWitnessScratch) {
	for _, s := range scs {
		s.release()
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

func evalScratchFor(nw *core.Network) func() *evalScratch {
	return func() *evalScratch {
		return &evalScratch{ev: core.NewEvaluator(nw), minFrac: math.Inf(1)}
	}
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
// bodies consume it with EvaluateNextInto / EvaluateNextCertInto. seq
// selects the sequential rng.New(seed+i) convention (E7/E9's historical
// seeding) instead of the harness streams.
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

// batchEvalScratchFor returns a constructor for batched evaluator scratch;
// when pool is non-nil the evaluator's buffers come from a pooled arena
// (fold results with mergeBatchEval, then hand the arenas back with
// releaseBatchEval).
//
// Every scratch churns through a ShardedEngine: decisions and paths are
// contractually bit-identical to the default sequential router (locked by
// the churn differential harness and the E9 parity rows), and the guided
// probes make churn-heavy experiments markedly faster.
func batchEvalScratchFor(pool *core.EvaluatorPool, nw *core.Network, m fault.Model, seq bool) func() *batchEvalScratch {
	return func() *batchEvalScratch {
		ev := core.NewEvaluator(nw)
		if pool != nil {
			ev = pool.NewEvaluator(nw)
		}
		ev.SetChurnEngine(route.NewShardedEngine(nw.G, churnShards))
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

// releaseBatchEval returns every pooled evaluator's arena (no-op entries
// for unpooled evaluators and never-started workers). Call only after
// mergeBatchEval has folded the results out.
func releaseBatchEval(scs []*batchEvalScratch) {
	for _, s := range scs {
		if s != nil {
			s.ev.Release()
		}
	}
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
