package core

import (
	"ftcsn/internal/arena"
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

// AvgPathLen returns the mean established-path length in switches.
func (t TrialOutcome) AvgPathLen() float64 {
	if t.ChurnConnects == 0 {
		return 0
	}
	ok := t.ChurnConnects - t.ChurnFailures
	if ok == 0 {
		return 0
	}
	return float64(t.ChurnPathTotal) / float64(ok)
}

// Evaluator owns every per-trial buffer of the Theorem-2 pipeline — fault
// instance, block injector, incremental repair masks, access checker,
// majority report, churn engine, and churn scratch — so repeated trials on
// one network allocate nothing in steady state. Trials run in blocks:
// StartBlock (or StartBlockSeq) draws a block's failure lists, and each
// EvaluateNextInto / EvaluateNextCertInto call advances the fault instance
// by a diff and repairs only the changed stage-neighborhoods, so per-trial
// overhead is O(#failure changes), not O(E). Give each Monte-Carlo worker
// its own Evaluator (montecarlo.RunWith with a BlockStarter scratch). An
// Evaluator is not safe for concurrent use.
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
	// the batch-shaped op stream; engDirty tracks whether the shared
	// traversal bytes were edited in place since the engine last derived
	// state from them.
	eng      route.Engine
	cd       netsim.ChurnDriver
	engDirty bool

	// Accumulated change lists for the engine's incremental refresh
	// (route.Engine.MasksChangedDiff): every mu.Apply between engine
	// notifications merges its flipped vertices and recomputed edges here,
	// epoch-deduplicated, so the diff handed to the engine covers every
	// byte edit since it last derived state — across as many trials as the
	// churn phase skips. The lists are arena-backed at full nV/nE capacity
	// (dedup bounds their length), so accumulation never allocates.
	// pendFull marks an edit recorded without its lists (the
	// certificate-only path, which never pays churn and so never tracks);
	// the next churn phase then falls back to the full MasksChanged.
	pendV, pendE     []int32
	pendVEp, pendEEp []uint32
	pendEpoch        uint32
	pendFull         bool

	// The injector advances inst between trials by diffs, and the mask
	// updater keeps masks (and the engine's shared view of them) current
	// from those diffs. Nothing else mutates inst.
	batch *fault.BatchInjector
	mu    *MaskUpdater

	// Pool bookkeeping (see EvaluatorPool): the arena backing this
	// evaluator's buffers, returned by Release.
	pool *EvaluatorPool
	a    *arena.Arena
}

// NewEvaluator returns a reusable trial evaluator for nw.
func NewEvaluator(nw *Network) *Evaluator { return NewEvaluatorIn(nw, nil) }

// NewEvaluatorIn is NewEvaluator drawing every O(V)/O(E) buffer from a
// (nil a allocates normally) — the pooled form behind EvaluatorPool. The
// repair masks and traversal bytes are pre-sized here so the lazy
// grow-on-first-use paths never allocate behind the arena's back.
func NewEvaluatorIn(nw *Network, a *arena.Arena) *Evaluator {
	rt := route.NewRouterIn(nw.G, a)
	rt.EnablePathReuse()
	ev := &Evaluator{
		nw:    nw,
		inst:  fault.NewInstanceIn(nw.G, a),
		fsc:   fault.NewScratchIn(nw.G, a),
		ac:    NewAccessCheckerIn(nw, a),
		batch: fault.NewBatchInjectorIn(nw.G, a),
		mu:    NewMaskUpdaterIn(nw.G, a),
	}
	nV, nE := nw.G.NumVertices(), nw.G.NumEdges()
	ev.masks.VertexOK = a.Bools(nV)
	ev.masks.EdgeOK = a.Bools(nE)
	ev.masks.OutAllowed = a.Bytes(nE)
	ev.masks.InAllowed = a.Bytes(nE)
	ev.pendV = a.I32(nV)[:0]
	ev.pendE = a.I32(nE)[:0]
	ev.pendVEp = a.U32(nV)
	ev.pendEEp = a.U32(nE)
	ev.mu.Init(ev.inst, &ev.masks)
	ev.SetChurnEngine(rt)
	return ev
}

// SetChurnEngine replaces the engine the churn phase runs on (default:
// the evaluator's sequential router) and hands it the evaluator's current
// shared masks. The engine must be over the evaluator's graph; every
// route.Engine has sequential-batch semantics, so outcomes stay
// bit-identical. On a pooled evaluator the engine borrows arena-backed
// mask slices, so Release detaches them (SetMasksShared(nil, nil, nil)):
// using the engine after the evaluator's Release fails loudly instead of
// reading recycled memory.
func (ev *Evaluator) SetChurnEngine(eng route.Engine) {
	ev.eng = eng
	eng.SetMasksShared(ev.masks.VertexOK, ev.masks.EdgeOK, ev.masks.OutAllowed)
	ev.engDirty = false
	ev.clearPending()
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
// EvaluateNextInto / EvaluateNextCertInto; outcomes never depend on the
// block size. Starting a block before the previous one is consumed
// panics.
func (ev *Evaluator) StartBlock(m fault.Model, seed, first uint64, n int) {
	ev.batch.FillStream(m, seed, first, n)
}

// StartBlockSeq is StartBlock for the sequential seeding convention of
// Evaluate: trial first+j draws its faults from rng.New(seedBase+first+j),
// with churn continuing on the same generator.
func (ev *Evaluator) StartBlockSeq(m fault.Model, seedBase, first uint64, n int) {
	ev.batch.FillSeq(m, seedBase, first, n)
}

// noteMaskEdits merges the latest mu.Apply's change lists (edges: its
// return value; vertices: ChangedVertices) into the pending diff the
// engine receives at the next churn phase. Dedup is epoch-stamped, so the
// arena-backed lists never outgrow their nV/nE capacity.
//
//ftcsn:hotpath per-trial diff bookkeeping on the batched pipeline
func (ev *Evaluator) noteMaskEdits(edges []int32) {
	if len(edges) == 0 {
		return
	}
	ev.engDirty = true
	for _, v := range ev.mu.ChangedVertices() {
		if ev.pendVEp[v] != ev.pendEpoch {
			ev.pendVEp[v] = ev.pendEpoch
			ev.pendV = append(ev.pendV, v)
		}
	}
	for _, e := range edges {
		if ev.pendEEp[e] != ev.pendEpoch {
			ev.pendEEp[e] = ev.pendEpoch
			ev.pendE = append(ev.pendE, e)
		}
	}
}

// clearPending forgets the accumulated diff after the engine consumed it
// (or SetChurnEngine handed a new engine the current masks). O(1): epoch bump; the
// stamp arrays are cleared only on the ~4-billion-epoch wraparound.
func (ev *Evaluator) clearPending() {
	ev.pendV = ev.pendV[:0]
	ev.pendE = ev.pendE[:0]
	ev.pendFull = false
	ev.pendEpoch++
	if ev.pendEpoch == 0 {
		clear(ev.pendVEp)
		clear(ev.pendEEp)
		ev.pendEpoch = 1
	}
}

// EvaluateNextInto runs the next trial of the current block: advance the
// fault instance, repair incrementally, check the Lemma-7 shorting
// witness and the majority-access certificate, and (for churnOps > 0)
// drive greedy churn on the churn engine. Churn randomness resumes the
// trial's own stream from its post-injection state. Calling it with the
// block exhausted panics.
//
//ftcsn:hotpath per-trial pipeline core; 0 allocs/trial pinned by BenchmarkEvaluatorBatchTrial
func (ev *Evaluator) EvaluateNextInto(out *TrialOutcome, churnOps int) {
	diff := ev.batch.ApplyNext(ev.inst)
	ev.noteMaskEdits(ev.mu.Apply(ev.inst, &ev.masks, diff))
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
		// stream (netsim.ChurnDriver). The refresh is incremental — the
		// accumulated change lists bound the engine's work to the diff's
		// reverse cone — unless an untracked edit (a certificate-only
		// trial in between) forces the full rebuild; the two are
		// bit-identical either way.
		ev.eng.Reset()
		if ev.engDirty {
			if ev.pendFull {
				ev.eng.MasksChanged()
			} else {
				ev.eng.MasksChangedDiff(ev.pendV, ev.pendE)
			}
			ev.clearPending()
			ev.engDirty = false
		}
		out.ChurnConnects, out.ChurnFailures, out.ChurnPathTotal =
			ev.cd.Run(ev.eng, ev.nw.Inputs(), ev.nw.Outputs(), churnOps, &ev.r)
	}
	out.Success = !out.Shorted && out.MajorityAccess && out.ChurnFailures == 0
}

// EvaluateNextCertInto is EvaluateNextInto restricted to inject →
// discard repair → majority-access certificate, skipping the Lemma-7
// shorting witness and churn — the fast path for experiments that read
// just the certificate fields (E5, the E10 ablations). Shorted is reported
// false and Success reflects only the certificate.
//
//ftcsn:hotpath per-trial certificate pipeline; 0 allocs/trial pinned by BenchmarkEvaluatorBatchCertTrial
func (ev *Evaluator) EvaluateNextCertInto(out *TrialOutcome) {
	diff := ev.batch.ApplyNext(ev.inst)
	// Record the edit without its lists: the certificate path never pays
	// a churn phase itself, so it skips per-trial diff bookkeeping; a
	// later churn trial falls back to the full refresh.
	if len(ev.mu.Apply(ev.inst, &ev.masks, diff)) > 0 {
		ev.engDirty = true
		ev.pendFull = true
	}
	*out = TrialOutcome{
		FailedSwitches: ev.inst.NumFailed(),
		OpenSwitches:   ev.inst.NumOpen(),
		ClosedSwitches: ev.inst.NumClosed(),
	}
	ev.nw.MajorityAccessInto(ev.ac, ev.masks, &ev.rep)
	out.MajorityAccess = ev.rep.OK
	out.MinInputAccess = minOf(ev.rep.InputAccess)
	out.MinOutputAccess = minOf(ev.rep.OutputAccess)
	out.Success = out.MajorityAccess
}

// Evaluate runs one trial: draw switch states from model m with the given
// seed, repair, verify, and run churnOps random connect/disconnect
// operations. churnOps = 0 skips the routing phase. It is a convenience
// wrapper that builds a one-shot Evaluator; Monte-Carlo loops should hold
// an Evaluator per worker and run blocks instead.
func (nw *Network) Evaluate(m fault.Model, seed uint64, churnOps int) TrialOutcome {
	return NewEvaluator(nw).Evaluate(m, seed, churnOps)
}

func minOf(xs []int) int {
	m := -1
	for _, x := range xs {
		if x < 0 {
			continue // busy terminal, exempt
		}
		if m < 0 || x < m {
			m = x
		}
	}
	return m
}
