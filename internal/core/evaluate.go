package core

import (
	"ftcsn/internal/fault"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// TrialOutcome is the result of one end-to-end Theorem-2 trial on a
// materialized Network 𝒩: inject faults, apply the discard repair, check
// the paper's failure witnesses and the majority-access certificate, then
// exercise the repaired network with greedy routing churn.
type TrialOutcome struct {
	FailedSwitches int
	OpenSwitches   int
	ClosedSwitches int

	// Shorted: two terminals contracted through closed switches (Lemma 7's
	// event — if it occurs the instance cannot contain a nonblocking
	// n-network with n distinct terminals).
	Shorted bool
	// MajorityAccess: the Lemma-6 certificate on the repaired network; it
	// is sufficient for the repaired network to be strictly nonblocking.
	MajorityAccess bool
	// MinInputAccess / MinOutputAccess are the worst terminal access
	// counts toward the middle stage (diagnostic for Lemma 3/6 margins).
	MinInputAccess  int
	MinOutputAccess int

	// Churn statistics: every connect on a strictly nonblocking network
	// must succeed, so ChurnFailures > 0 falsifies nonblockingness
	// operationally.
	ChurnConnects  int
	ChurnFailures  int
	ChurnPathTotal int // summed path lengths (switch counts) of successes

	// Success is the overall Theorem-2 event: no terminals shorted, the
	// majority-access certificate holds, and churn never blocked.
	Success bool
}

// Evaluator owns every per-trial buffer of the Theorem-2 pipeline — fault
// instance, block injector, incremental repair masks, access checker,
// majority report, churn engine, and churn scratch — so repeated trials on
// one network allocate nothing in steady state. Trials run in blocks:
// StartBlock (or StartBlockSeq) draws a block's failure lists, and each
// EvaluateNextInto call, the only trial entry, advances the fault
// instance by a diff and repairs only the changed stage-neighborhoods, so
// per-trial overhead is O(#failure changes), not O(E). Give each
// Monte-Carlo worker its own Evaluator (montecarlo.RunWith with a
// BlockStarter scratch). An Evaluator is not safe for concurrent use.
type Evaluator struct {
	nw    *Network
	inst  *fault.Instance
	fsc   *fault.Scratch
	masks Masks
	ac    *AccessChecker
	rep   MajorityReport
	r     rng.RNG

	// Churn engine seam: the churn phase runs on eng — by default the
	// evaluator's own sequential router, swappable for any route.Engine
	// via SetChurnEngine (the guided engine's pruned hunts make n=64
	// trials markedly faster; decisions and paths are bit-identical
	// either way). eng always shares the evaluator's masks. cd generates
	// the batch-shaped op stream. engStale marks a mask edit the engine
	// was not told about: a trial with churnOps == 0 edits the shared
	// bytes without a notification, and the next churn trial then
	// refreshes with the full MasksChanged instead of its own diff.
	eng      route.Engine
	cd       netsim.ChurnDriver
	engStale bool

	// The injector advances inst between trials by diffs, and the mask
	// updater keeps masks (and the engine's shared view of them) current
	// from those diffs. Nothing else mutates inst.
	batch *fault.BatchInjector
	mu    *MaskUpdater
}

// NewEvaluator returns a reusable trial evaluator for nw. The repair
// masks and the traversal bytes are sized here, so no trial grows them.
func NewEvaluator(nw *Network) *Evaluator {
	rt := route.NewRouter(nw.G)
	rt.EnablePathReuse()
	ev := &Evaluator{
		nw:    nw,
		inst:  fault.NewInstance(nw.G),
		fsc:   fault.NewScratch(nw.G),
		ac:    NewAccessChecker(nw),
		batch: fault.NewBatchInjector(nw.G),
		mu:    NewMaskUpdater(nw.G),
	}
	nV, nE := nw.G.NumVertices(), nw.G.NumEdges()
	ev.masks.VertexOK = make([]bool, nV)
	ev.masks.EdgeOK = make([]bool, nE)
	ev.masks.OutAllowed = make([]uint8, nE)
	ev.mu.Init(ev.inst, &ev.masks)
	ev.SetChurnEngine(rt)
	return ev
}

// SetChurnEngine replaces the engine the churn phase runs on (default:
// the evaluator's sequential router) and hands it the evaluator's current
// shared masks. The engine must be over the evaluator's graph; every
// route.Engine has sequential-batch semantics, so outcomes stay
// bit-identical.
func (ev *Evaluator) SetChurnEngine(eng route.Engine) {
	ev.eng = eng
	eng.SetMasksShared(ev.masks.VertexOK, ev.masks.EdgeOK, ev.masks.OutAllowed)
	ev.engStale = false
}

// Evaluate runs one trial as a one-trial block: switch states and churn
// randomness both come from rng.New(seed) — StartBlockSeq(m, seed, 0, 1)
// followed by EvaluateNextInto. Call it between blocks only: with trials
// of a block still pending it panics (the injector refuses the refill).
func (ev *Evaluator) Evaluate(m fault.Model, seed uint64, churnOps int) TrialOutcome {
	ev.StartBlockSeq(m, seed, 0, 1)
	var out TrialOutcome
	ev.EvaluateNextInto(&out, churnOps)
	return out
}

// StartBlock readies the evaluator for a block of trials under model m:
// trial first+j draws its faults from rng.Stream(seed, first+j), the
// seeding of the montecarlo harness. Consume the block with
// EvaluateNextInto; outcomes never depend on the block size. Starting a
// block before the previous one is consumed panics, and so does an
// invalid model m (fault.Model.Validate).
func (ev *Evaluator) StartBlock(m fault.Model, seed, first uint64, n int) {
	ev.batch.FillStream(m, seed, first, n)
}

// StartBlockSeq is StartBlock for the sequential seeding convention of
// Evaluate: trial first+j draws its faults from rng.New(seedBase+first+j),
// with churn continuing on the same generator.
func (ev *Evaluator) StartBlockSeq(m fault.Model, seedBase, first uint64, n int) {
	ev.batch.FillSeq(m, seedBase, first, n)
}

// EvaluateNextInto runs the next trial of the current block: advance the
// fault instance, repair incrementally, check the Lemma-7 shorting
// witness and the majority-access certificate, and (for churnOps > 0)
// drive greedy churn on the churn engine. Churn randomness resumes the
// trial's own stream from its post-injection state. Experiments that read
// only the certificate fields (E5, E10) pass churnOps == 0. Calling it
// with the block exhausted panics.
//
//ftcsn:hotpath per-trial pipeline core; 0 allocs/trial pinned by BenchmarkEvaluatorBatchTrial
func (ev *Evaluator) EvaluateNextInto(out *TrialOutcome, churnOps int) {
	diff := ev.batch.ApplyNext(ev.inst)
	edges := ev.mu.Apply(ev.inst, &ev.masks, diff)
	ev.r.SetState(ev.batch.RNGState(ev.batch.Applied()))
	*out = TrialOutcome{
		FailedSwitches: ev.inst.NumFailed(),
		OpenSwitches:   ev.inst.NumOpen(),
		ClosedSwitches: ev.inst.NumClosed(),
	}
	list, sts := ev.batch.AppliedFailures()
	if a, _ := ev.inst.ShortedTerminalsFromList(list, sts, ev.fsc); a >= 0 {
		out.Shorted = true
	}
	ev.nw.MajorityAccessInto(ev.ac, ev.masks, &ev.rep)
	out.MajorityAccess = ev.rep.OK
	out.MinInputAccess = minOf(ev.rep.InputAccess)
	out.MinOutputAccess = minOf(ev.rep.OutputAccess)

	if churnOps > 0 {
		// Masks are shared and already current: drop circuits, let the
		// engine refresh anything it derives from the edited bytes (the
		// guided engine's routing guide), and drive the batch-shaped op
		// stream (netsim.ChurnDriver). The refresh is incremental — this
		// trial's change lists bound the engine's work to the diff's
		// reverse cone — unless an earlier trial's edit went unreported,
		// which forces the full rebuild; the two are bit-identical either
		// way.
		ev.eng.Reset()
		if ev.engStale {
			ev.eng.MasksChanged()
			ev.engStale = false
		} else if len(edges) > 0 {
			ev.eng.MasksChangedDiff(ev.mu.ChangedVertices(), edges)
		}
		out.ChurnConnects, out.ChurnFailures, out.ChurnPathTotal =
			ev.cd.Run(ev.eng, ev.nw.Inputs(), ev.nw.Outputs(), churnOps, &ev.r)
	} else if len(edges) > 0 {
		ev.engStale = true
	}
	out.Success = !out.Shorted && out.MajorityAccess && out.ChurnFailures == 0
}

// Evaluate runs one trial: draw switch states from model m with the given
// seed, repair, verify, and run churnOps random connect/disconnect
// operations. churnOps = 0 skips the routing phase. It is a convenience
// wrapper that builds a one-shot Evaluator; Monte-Carlo loops should hold
// an Evaluator per worker and run blocks instead.
func (nw *Network) Evaluate(m fault.Model, seed uint64, churnOps int) TrialOutcome {
	return NewEvaluator(nw).Evaluate(m, seed, churnOps)
}

// minOf returns the smallest access count in xs, or -1 if xs is empty.
func minOf(xs []int) int {
	m := -1
	for _, x := range xs {
		if m < 0 || x < m {
			m = x
		}
	}
	return m
}
