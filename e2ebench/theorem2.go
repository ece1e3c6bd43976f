package main

import (
	"fmt"
	"time"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

// theorem2-n64 is the paper's own experiment: Monte-Carlo trials of the
// Theorem-2 pipeline (inject → repair → certify → witness → churn) on
// Network 𝒩 at ν=3, run as the experiments run them — through
// montecarlo.RunWith, with a batched Evaluator churning on a ShardedEngine
// — but with one worker and one shard, so nothing else contends.
const (
	t2Nu    = 3
	t2Eps   = 0.002
	t2Churn = 120
	// t2Copies is how many evaluators, each on its own copy of the
	// network, the trial blocks rotate over. One copy runs up to ~10%
	// faster or slower than another depending on where its arrays landed
	// in memory; rotating averages that out within a run. No outcome
	// depends on the copy.
	t2Copies = 4
	// t2Segments splits the timed trials into harness runs, each followed
	// by its reference check, so the timed trials spread over the whole
	// run instead of one stretch of host load.
	t2Segments = 8
)

// trialUnit is an evaluator-shaped scratch: the Evaluator itself, or the
// replica that times the calls it makes.
type trialUnit interface {
	StartBlock(seed, first uint64, n int)
	evaluateNext(out *core.TrialOutcome)
	recorder() *recEngine
}

// t2Eval is the experiments' worker scratch: a batched Evaluator churning
// on a ShardedEngine behind the recording decorator, or, with rec nil, on
// the Evaluator's own sequential Router.
type t2Eval struct {
	ev  *core.Evaluator
	rec *recEngine
}

func newT2Eval(nw *core.Network) *t2Eval {
	rec := newRecEngine(route.NewShardedEngine(nw.G, 1), nil)
	ev := core.NewEvaluator(nw)
	ev.SetChurnEngine(rec)
	return &t2Eval{ev: ev, rec: rec}
}

func (s *t2Eval) StartBlock(seed, first uint64, n int) {
	s.ev.StartBlock(fault.Symmetric(t2Eps), seed, first, n)
}
func (s *t2Eval) evaluateNext(out *core.TrialOutcome) { s.ev.EvaluateNextInto(out, t2Churn) }
func (s *t2Eval) recorder() *recEngine                { return s.rec }

// rotor is the montecarlo scratch that hands each block of trials to the
// next of its units.
type rotor struct {
	units []trialUnit
	cur   int
}

func (r *rotor) StartBlock(seed, first uint64, n int) {
	r.cur = (r.cur + 1) % len(r.units)
	r.units[r.cur].StartBlock(seed, first, n)
}

func (r *rotor) unit() trialUnit { return r.units[r.cur] }

// behind merges the units' events-behind histograms.
func (r *rotor) behind() *stats.LogHist {
	var h stats.LogHist
	for _, u := range r.units {
		h.Merge(&u.recorder().behind)
	}
	return &h
}

// runT2 runs trials 0..n-1 of seed through the harness on one worker.
func runT2[S any](s S, seed uint64, n int, trial func(s S, i int)) time.Duration {
	cfg := montecarlo.Config{Trials: n, Workers: 1, Seed: seed}
	t0 := time.Now()
	montecarlo.RunWith(cfg, func() S { return s }, func(_ *rng.RNG, s S, i uint64) { trial(s, int(i)) })
	return time.Since(t0)
}

// segment returns the first op and the op count of segment j of n ops.
func segment(n, segs, j int) (first, count int) {
	return j * n / segs, (j+1)*n/segs - j*n/segs
}

func runTheorem2(cfg runConfig, rep *report) error {
	warmSeed, seed := derive(cfg.seed, seedWarm), derive(cfg.seed, seedTimed)
	n := cfg.ops
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var nws []*core.Network
	rot, setupSecs, err := timedSetups(setups, func() (*rotor, error) {
		nws = nws[:0]
		rot := &rotor{}
		for c := 0; c < t2Copies; c++ {
			nw, err := core.Build(core.DefaultParams(t2Nu))
			if err != nil {
				return nil, err
			}
			nws = append(nws, nw)
			rot.units = append(rot.units, newT2Eval(nw))
		}
		var out core.TrialOutcome
		runT2(rot, warmSeed, cfg.warm, func(r *rotor, _ int) { r.unit().evaluateNext(&out) })
		return rot, nil
	})
	if err != nil {
		return err
	}
	heap := liveHeap()

	// Untraced pass: the Evaluators themselves, timed per trial from
	// outside. After each segment, the same trials run again on an
	// Evaluator with its default sequential Router and must give identical
	// outcomes.
	outs := make([]core.TrialOutcome, n)
	hashes := make([]uint64, n)
	p := newPass(n)
	p.ops = int64(n)
	for _, u := range rot.units {
		u.recorder().clear()
	}
	host := newHostRef(readingsFor(n, t2Segments))
	ref := &t2Eval{ev: core.NewEvaluator(nws[0])}
	var refOut core.TrialOutcome
	var mismatched int64
	for j := 0; j < t2Segments; j++ {
		first, cnt := segment(n, t2Segments, j)
		segSeed := derive(seed, uint64(j))
		spent := host.spent
		wall := runT2(rot, segSeed, cnt, func(r *rotor, i int) {
			if i == 0 {
				host.bracket()
			} else if i%refEvery == 0 {
				host.read()
			}
			u := r.unit()
			rec := u.recorder()
			rec.hash = fnvOffset
			t0 := time.Now()
			u.evaluateNext(&outs[first+i])
			p.add(1, time.Since(t0), host)
			hashes[first+i] = rec.hash
			if i == cnt-1 {
				host.bracket()
			}
		})
		p.wall += wall - (host.spent - spent)
		runT2(ref, segSeed, cnt, func(s *t2Eval, i int) {
			s.evaluateNext(&refOut)
			if refOut != outs[first+i] {
				mismatched++
			}
		})
	}
	rep.attempted = int64(n)
	if mismatched > 0 {
		rep.fail(mismatched, "theorem2: %d of %d trials differ from the sequential-Router Evaluator", mismatched, n)
	}
	var conns, fails int
	for _, o := range outs {
		conns += o.ChurnConnects
		fails += o.ChurnFailures
	}
	behind := rot.behind().Quantile(0.99)
	rep.endToEnd(p, host, setupSecs, heap, ratio(int64(conns-fails), int64(conns)), behind)
	if !cfg.trace {
		return nil
	}

	// Traced pass: replicas on fresh engines over the same network copies,
	// warmed the same way, over the same segments. Allocations are counted
	// from the first trial body of each segment to the end of its last,
	// leaving out the harness's per-run worker start-up.
	tr := newTracer(n*t2SpansPerTrial + 1024)
	trot := &rotor{}
	var reps []*replica
	for _, nw := range nws {
		rp := newReplica(nw, tr)
		reps = append(reps, rp)
		trot.units = append(trot.units, rp)
	}
	var out core.TrialOutcome
	runT2(trot, warmSeed, cfg.warm, func(r *rotor, _ int) { r.unit().evaluateNext(&out) })
	var st0 route.ShardedStats
	for _, rp := range reps {
		rp.rec.clear()
		rp.diffEntries, rp.maskEdges, rp.flipped = 0, 0, 0
		st0 = addStats(st0, rp.se.ShardedStats())
	}
	var diverged int64
	var allocs uint64
	tr.start()
	for j := 0; j < t2Segments; j++ {
		first, cnt := segment(n, t2Segments, j)
		var m0 uint64
		h := tr.begin(spHarness)
		runT2(trot, derive(seed, uint64(j)), cnt, func(r *rotor, i int) {
			if i == 0 {
				g := tr.begin(spGlue)
				m0 = mallocs()
				tr.end(g)
			}
			tr.setOp(first + i)
			sp := tr.begin(spOp)
			u := r.unit()
			rec := u.recorder()
			rec.hash = fnvOffset
			u.evaluateNext(&out)
			if out != outs[first+i] || rec.hash != hashes[first+i] {
				diverged++
			}
			tr.end(sp)
			if i == cnt-1 {
				g := tr.begin(spGlue)
				allocs += mallocs() - m0
				tr.end(g)
			}
		})
		tr.end(h)
	}
	tr.stop()
	if diverged > 0 {
		rep.fail(diverged, "theorem2: replica differs from the Evaluator on %d of %d trials", diverged, n)
	}
	rep.expect("theorem2: traced behind_p99", trot.behind().Quantile(0.99), behind)
	var st route.ShardedStats
	var diffEntries, maskEdges, flipped int64
	for _, rp := range reps {
		st = addStats(st, rp.se.ShardedStats())
		diffEntries += rp.diffEntries
		maskEdges += rp.maskEdges
		flipped += rp.flipped
	}
	rep.count("runtime.allocs_per_op", float64(allocs)/float64(n), "count")
	rep.count("fault.diff_entries", ratio(diffEntries, int64(n)), "count")
	rep.count("core.mask_edges", ratio(maskEdges, int64(n)), "count")
	rep.count("core.flipped_vertices", ratio(flipped, int64(n)), "count")
	rep.routeCounts(st0, st)
	rep.layerSplit(tr, int64(n), p.wall)
	return tr.writeSpans(fmt.Sprintf("%s/spans-theorem2-n64.tsv.gz", cfg.outDir))
}

// t2SpansPerTrial bounds the spans one traced trial records: a handful of
// pipeline phases plus one per connect batch and per release of 120
// churn ops.
const t2SpansPerTrial = 16 + 2*t2Churn

// replica is core.Evaluator's batched trial (StartBlock, EvaluateNextInto)
// composed from the exported calls it makes, so each call can be timed
// from outside. It keeps the Evaluator's epoch-deduplicated pending diff,
// which hands the engine every mask edit since its last refresh. Its
// outcomes must match the Evaluator's bit for bit.
type replica struct {
	nw    *core.Network
	inst  *fault.Instance
	fsc   *fault.Scratch
	masks core.Masks
	ac    *core.AccessChecker
	rep   core.MajorityReport
	batch *fault.BatchInjector
	mu    *core.MaskUpdater
	se    *route.ShardedEngine
	rec   *recEngine
	cd    netsim.ChurnDriver
	r     rng.RNG
	model fault.Model
	tr    *tracer

	synced, engDirty bool
	pendV, pendE     []int32
	pendVEp, pendEEp []uint32
	pendEpoch        uint32

	diffEntries, maskEdges, flipped int64
}

func newReplica(nw *core.Network, tr *tracer) *replica {
	nV, nE := nw.G.NumVertices(), nw.G.NumEdges()
	se := route.NewShardedEngine(nw.G, 1)
	return &replica{
		nw:        nw,
		inst:      fault.NewInstance(nw.G),
		fsc:       fault.NewScratch(nw.G),
		ac:        core.NewAccessChecker(nw),
		batch:     fault.NewBatchInjector(nw.G),
		mu:        core.NewMaskUpdater(nw.G),
		se:        se,
		rec:       newRecEngine(se, tr),
		model:     fault.Symmetric(t2Eps),
		tr:        tr,
		pendV:     make([]int32, 0, nV),
		pendE:     make([]int32, 0, nE),
		pendVEp:   make([]uint32, nV),
		pendEEp:   make([]uint32, nE),
		pendEpoch: 1,
	}
}

// StartBlock mirrors Evaluator.StartBlock: adopt fresh masks on first use,
// then draw the block's failure lists.
func (rp *replica) StartBlock(seed, first uint64, n int) {
	sp := rp.tr.begin(spStartBlock)
	if !rp.synced {
		rp.batch.Rebase(rp.inst)
		rp.mu.Init(rp.inst, &rp.masks)
		rp.rec.SetMasksShared(rp.masks.VertexOK, rp.masks.EdgeOK, rp.masks.OutAllowed)
		rp.engDirty = false
		rp.clearPending()
		rp.synced = true
	}
	f := rp.tr.begin(spFillStream)
	rp.batch.FillStream(rp.model, seed, first, n)
	rp.tr.end(f)
	rp.tr.end(sp)
}

func (rp *replica) clearPending() {
	rp.pendV = rp.pendV[:0]
	rp.pendE = rp.pendE[:0]
	rp.pendEpoch++
	if rp.pendEpoch == 0 {
		clear(rp.pendVEp)
		clear(rp.pendEEp)
		rp.pendEpoch = 1
	}
}

func (rp *replica) recorder() *recEngine { return rp.rec }

// evaluateNext mirrors Evaluator.EvaluateNextInto call for call.
func (rp *replica) evaluateNext(out *core.TrialOutcome) {
	tr := rp.tr
	sp := tr.begin(spApplyNext)
	diff := rp.batch.ApplyNext(rp.inst)
	tr.end(sp)

	sp = tr.begin(spMaskApply)
	edges := rp.mu.Apply(rp.inst, &rp.masks, diff)
	flipped := rp.mu.ChangedVertices()
	if len(edges) > 0 {
		rp.engDirty = true
		for _, v := range flipped {
			if rp.pendVEp[v] != rp.pendEpoch {
				rp.pendVEp[v] = rp.pendEpoch
				rp.pendV = append(rp.pendV, v)
			}
		}
		for _, e := range edges {
			if rp.pendEEp[e] != rp.pendEpoch {
				rp.pendEEp[e] = rp.pendEpoch
				rp.pendE = append(rp.pendE, e)
			}
		}
	}
	tr.end(sp)
	rp.diffEntries += int64(len(diff))
	rp.maskEdges += int64(len(edges))
	rp.flipped += int64(len(flipped))

	rp.r.SetState(rp.batch.RNGState(rp.batch.Applied()))
	*out = core.TrialOutcome{
		FailedSwitches: rp.inst.NumFailed(),
		OpenSwitches:   rp.inst.NumOpen(),
		ClosedSwitches: rp.inst.NumClosed(),
	}

	sp = tr.begin(spWitness)
	list, sts := rp.batch.AppliedFailures()
	a, _ := rp.inst.ShortedTerminalsFromList(list, sts, rp.fsc)
	tr.end(sp)
	out.Shorted = a >= 0

	sp = tr.begin(spCertify)
	rp.nw.MajorityAccessInto(rp.ac, rp.masks, &rp.rep)
	tr.end(sp)
	out.MajorityAccess = rp.rep.OK
	out.MinInputAccess = minAccess(rp.rep.InputAccess)
	out.MinOutputAccess = minAccess(rp.rep.OutputAccess)

	if t2Churn > 0 {
		rp.rec.Reset()
		if rp.engDirty {
			rp.rec.MasksChangedDiff(rp.pendV, rp.pendE)
			rp.clearPending()
			rp.engDirty = false
		}
		sp = tr.begin(spChurn)
		out.ChurnConnects, out.ChurnFailures, out.ChurnPathTotal =
			rp.cd.Run(rp.rec, rp.nw.Inputs(), rp.nw.Outputs(), t2Churn, &rp.r)
		tr.end(sp)
	}
	out.Success = !out.Shorted && out.MajorityAccess && out.ChurnFailures == 0
}

// minAccess is the smallest access count of an idle terminal (busy ones
// are -1), or -1 if there is none — the Evaluator's reduction.
func minAccess(xs []int) int {
	m := -1
	for _, x := range xs {
		if x >= 0 && (m < 0 || x < m) {
			m = x
		}
	}
	return m
}
