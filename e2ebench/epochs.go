package main

import (
	"fmt"
	"time"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/multibutterfly"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// epochs-n4096 is the fault-epoch loop at big n: a multibutterfly on 4096
// terminals whose masks move by one BatchInjector trial diff per epoch,
// with the engine's 64-word routing guide maintained incrementally and a
// churn burst served on the new masks.
const (
	epK        = 12
	epD        = 2
	epNetSeed  = 0xB16B00
	epEps      = 1e-4
	epChurn    = 256
	epGuide    = 64
	epBlock    = 32
	epSpansPer = 16 + 2*epChurn
	// epSegments splits the timed epochs into stretches, each followed by
	// its Router replay, so the timing spreads over the whole run.
	epSegments = 8
)

type epochSys struct {
	g     *graph.Graph
	inst  *fault.Instance
	bi    *fault.BatchInjector
	mu    *core.MaskUpdater
	m     core.Masks
	se    *route.ShardedEngine // nil on the Router replay
	rec   *recEngine
	cd    netsim.ChurnDriver
	r     rng.RNG
	model fault.Model

	diffEntries, maskEdges, flipped int64
}

// epochResult is what one epoch's churn burst decided.
type epochResult struct {
	connects, failures, pathTotal int
	hash                          uint64
}

// newEpochSys wires an injector, a mask updater and eng over g. The
// instance starts fault-free; eng adopts the masks the updater maintains.
func newEpochSys(g *graph.Graph, eng route.Engine, tr *tracer) *epochSys {
	s := &epochSys{
		g:     g,
		inst:  fault.NewInstance(g),
		bi:    fault.NewBatchInjector(g),
		mu:    core.NewMaskUpdater(g),
		rec:   newRecEngine(eng, tr),
		model: fault.Symmetric(epEps),
	}
	s.mu.Init(s.inst, &s.m)
	s.rec.SetMasksShared(s.m.VertexOK, s.m.EdgeOK, s.m.OutAllowed)
	return s
}

func buildEpochs(cfg runConfig, tr *tracer) (*epochSys, error) {
	mb, err := multibutterfly.New(epK, epD, epNetSeed)
	if err != nil {
		return nil, err
	}
	se := route.NewShardedEngine(mb.G, 1)
	s := newEpochSys(mb.G, se, tr)
	s.se = se
	se.SetGuideLimit(epGuide)
	if w, groups := se.GuideWords(); w == nil || groups != epGuide {
		return nil, fmt.Errorf("guide not built at %d words (got %d)", epGuide, groups)
	}
	s.runEpochs(derive(cfg.seed, seedWarm), 0, cfg.warm, 1, nil, nil, nil, nil)
	return s, nil
}

// runEpochs runs epochs first..first+n-1 of seed: apply the trial's fault
// diff to the masks, drop every circuit, refresh the guide from the change
// lists, and serve the churn burst. Only every stride-th epoch serves its
// burst; the others just advance the masks. p, when non-nil, receives each
// epoch's host-adjusted wall time and progress, host reading the host's
// speed between epochs; res, when non-nil, its decisions.
// after, when non-nil, runs after each burst, outside the timed span.
func (s *epochSys) runEpochs(seed uint64, first, n, stride int, p *pass, host *hostRef, res []epochResult, after func()) {
	tr := s.rec.tr
	in, out := s.g.Inputs(), s.g.Outputs()
	var start time.Time
	var spent time.Duration
	if p != nil {
		start, spent = time.Now(), host.spent
		host.bracket()
	}
	for i := first; i < first+n; i++ {
		tr.setOp(i)
		var t0 time.Time
		if p != nil {
			if i > first && i%refEvery == 0 {
				host.read()
			}
			t0 = time.Now()
		}
		op := tr.begin(spOp)
		if s.bi.Remaining() == 0 {
			sp := tr.begin(spFillStream)
			s.bi.FillStream(s.model, seed, uint64(i), min(epBlock, first+n-i))
			tr.end(sp)
		}
		sp := tr.begin(spApplyNext)
		diff := s.bi.ApplyNext(s.inst)
		tr.end(sp)
		sp = tr.begin(spMaskApply)
		edges := s.mu.Apply(s.inst, &s.m, diff)
		flipped := s.mu.ChangedVertices()
		tr.end(sp)
		s.diffEntries += int64(len(diff))
		s.maskEdges += int64(len(edges))
		s.flipped += int64(len(flipped))
		if i%stride != 0 {
			tr.end(op)
			continue
		}
		s.rec.Reset()
		s.rec.MasksChangedDiff(flipped, edges)
		s.r.SetState(s.bi.RNGState(s.bi.Applied()))
		s.rec.hash = fnvOffset
		sp = tr.begin(spChurn)
		c, f, pt := s.cd.Run(s.rec, in, out, epChurn, &s.r)
		tr.end(sp)
		tr.end(op)
		if p != nil {
			p.add(1, time.Since(t0), host)
		}
		if res != nil {
			res[i] = epochResult{c, f, pt, s.rec.hash}
		}
		if after != nil {
			after()
		}
	}
	if p != nil {
		host.bracket()
		p.wall += time.Since(start) - (host.spent - spent)
	}
}

// routerStride spaces the epochs the Router replay checks: an unguided
// Router hunt at n=4096 costs about 45 times the guided engine's, so
// checking every epoch would dwarf the timed pass.
const routerStride = 128

func runEpochs(cfg runConfig, rep *report) error {
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	s, setupSecs, err := timedSetups(setups, func() (*epochSys, error) { return buildEpochs(cfg, nil) })
	if err != nil {
		return err
	}
	heap := liveHeap()
	seed, n := derive(cfg.seed, seedTimed), cfg.ops

	// Untraced pass, in segments. After each segment: every
	// routerStride-th epoch of it, replayed on the sequential Router over
	// the same masks, must decide every request identically and leave the
	// Router's circuits valid. After the last, ShardedEngine.VerifyState
	// must pass.
	res := make([]epochResult, n)
	refRes := make([]epochResult, n)
	p := newPass(n)
	p.ops = int64(n)
	host := newHostRef(readingsFor(n, epSegments))
	s.rec.clear()
	rt := route.NewRouter(s.g)
	rt.EnablePathReuse()
	ref := newEpochSys(s.g, rt, nil)
	checkRouter := func() {
		if err := rt.VerifyInvariants(); err != nil {
			rep.fail(1, "epochs: Router replay invariants: %v", err)
		}
	}
	for j := 0; j < epSegments; j++ {
		first, cnt := segment(n, epSegments, j)
		s.runEpochs(seed, first, cnt, 1, p, host, res, nil)
		ref.runEpochs(seed, first, cnt, routerStride, nil, nil, refRes, checkRouter)
	}
	if err := s.se.VerifyState(); err != nil {
		rep.fail(1, "epochs: VerifyState after the last epoch: %v", err)
	}
	var differ int64
	for i := 0; i < n; i += routerStride {
		if res[i] != refRes[i] {
			differ++
		}
	}
	if differ > 0 {
		rep.fail(differ, "epochs: %d of %d replayed epochs differ from the Router", differ, (n+routerStride-1)/routerStride)
	}
	rep.attempted = int64(n)
	var conns, fails int
	for _, r := range res {
		conns += r.connects
		fails += r.failures
	}
	behind := s.rec.behind.Quantile(0.99)
	rep.endToEnd(p, host, setupSecs, heap, ratio(int64(conns-fails), int64(conns)), behind)
	if !cfg.trace {
		return nil
	}

	// Traced pass on a fresh set-up of the same seed.
	tr := newTracer(n*epSpansPer + 1024)
	ts, err := buildEpochs(cfg, tr)
	if err != nil {
		return err
	}
	ts.diffEntries, ts.maskEdges, ts.flipped = 0, 0, 0
	ts.rec.clear()
	st0 := ts.se.ShardedStats()
	tres := make([]epochResult, n)
	var allocs uint64
	tr.start()
	for j := 0; j < epSegments; j++ {
		first, cnt := segment(n, epSegments, j)
		m0 := mallocs()
		root := tr.begin(spPass)
		ts.runEpochs(seed, first, cnt, 1, nil, nil, tres, nil)
		tr.end(root)
		allocs += mallocs() - m0
	}
	tr.stop()
	rep.count("runtime.allocs_per_op", float64(allocs)/float64(n), "count")
	var diverged int64
	for i := range res {
		if tres[i] != res[i] {
			diverged++
		}
	}
	if diverged > 0 {
		rep.fail(diverged, "epochs: traced pass differs from the untraced pass on %d of %d epochs", diverged, n)
	}
	rep.expect("epochs: traced behind_p99", ts.rec.behind.Quantile(0.99), behind)
	rep.count("fault.diff_entries", ratio(ts.diffEntries, int64(n)), "count")
	rep.count("core.mask_edges", ratio(ts.maskEdges, int64(n)), "count")
	rep.count("core.flipped_vertices", ratio(ts.flipped, int64(n)), "count")
	rep.routeCounts(st0, ts.se.ShardedStats())
	rep.layerSplit(tr, int64(n), p.wall)
	return tr.writeSpans(fmt.Sprintf("%s/spans-epochs-n4096.tsv.gz", cfg.outDir))
}
