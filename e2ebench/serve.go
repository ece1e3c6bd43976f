package main

import (
	"fmt"
	"time"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

// serve-n256 is ftserve's path: open-loop Poisson sessions served by
// netsim.Loop on a repaired ν=4 Network 𝒩 through ShardedEngines with
// ftserve's defaults (one shard here). 16 arrivals per unit of virtual
// time holding 4 units each offer 64 Erlangs to 256 terminals.
const (
	svNu   = 4
	svEps  = 0.002
	svRate = 16.0
	svHold = 4.0
	// svWindow is the report interval in virtual time: about a hundred
	// events (arrivals and departures) per window, each window one
	// per-event cost sample.
	svWindow = 4.0
	// svSessions splits the timed arrivals into serving sessions, each on
	// an engine of its own and each followed by its Router replay. Like
	// theorem2's copies and segments, this averages out memory placement
	// and spreads the timing over the run. A session ramps up from idle in
	// a few holding times, under 1% of its arrivals.
	svSessions = 4
)

// serveSys is one repaired network with an engine per session.
type serveSys struct {
	nw   *core.Network
	inst *fault.Instance
	ses  []*route.ShardedEngine
	recs []*recEngine
	loop netsim.Loop
}

func newServeSource(nw *core.Network, seed uint64) *netsim.TrafficSource {
	return netsim.NewTrafficSource(seed, netsim.NewPoisson(svRate), netsim.NewExpHolding(svHold),
		netsim.NewUniformPattern(nw.Inputs(), nw.Outputs()))
}

// buildServe builds the network, draws and repairs its faults, builds one
// engine and guide per session, and warms each up with arrivals of its own.
func buildServe(cfg runConfig, tr *tracer) (*serveSys, error) {
	nw, err := core.Build(core.DefaultParams(svNu))
	if err != nil {
		return nil, err
	}
	inst := fault.NewInstance(nw.G)
	fault.InjectInto(inst, fault.Symmetric(svEps), rng.New(derive(cfg.seed, seedFaults)))
	s := &serveSys{nw: nw, inst: inst}
	warmSeed := derive(cfg.seed, seedWarm)
	for j := 0; j < svSessions; j++ {
		se := route.NewRepairedShardedEngine(inst, 1)
		rec := newRecEngine(se, tr)
		var slo stats.SLO
		if err := s.loop.Serve(rec, newServeSource(nw, derive(warmSeed, uint64(j))),
			netsim.ServeConfig{MaxArrivals: int64(cfg.warm)}, &slo); err != nil {
			return nil, err
		}
		rec.Reset()
		rec.clear()
		s.ses = append(s.ses, se)
		s.recs = append(s.recs, rec)
	}
	return s, nil
}

// serveSession serves session j's arrivals on its engine. Each non-empty
// report window gives p one sample, its wall time per event, and one
// progress mark; p's buffers are sized by the caller so sampling never
// allocates. With host non-nil, a host reading follows each window, left
// out of the next one's time, and two bracket the session.
func (s *serveSys) serveSession(cfg runConfig, j int, src netsim.Source, slo *stats.SLO, p *pass, host *hostRef) error {
	var spent time.Duration
	if host != nil {
		host.bracket()
		spent = host.spent
	}
	start := time.Now()
	last := start
	_, arrivals := segment(cfg.ops, svSessions, j)
	sc := netsim.ServeConfig{
		MaxArrivals: int64(arrivals),
		ReportEvery: svWindow,
		OnReport: func(_ float64, slo *stats.SLO) {
			now := time.Now()
			w := slo.Window()
			if ev := w.Offered + w.Departed; ev > 0 && len(p.raw) < cap(p.raw) {
				p.add(ev, now.Sub(last), host)
			}
			if host != nil {
				host.read()
				now = time.Now()
			}
			last = now
		},
	}
	rec := s.recs[j]
	sp := rec.tr.begin(spServe)
	err := s.loop.Serve(rec, src, sc, slo)
	rec.tr.end(sp)
	p.wall += time.Since(start)
	if host != nil {
		p.wall -= host.spent - spent
		host.bracket()
	}
	return err
}

func (s *serveSys) behind() *stats.LogHist {
	var h stats.LogHist
	for _, rec := range s.recs {
		h.Merge(&rec.behind)
	}
	return &h
}

func runServe(cfg runConfig, rep *report) error {
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	s, setupSecs, err := timedSetups(setups, func() (*serveSys, error) { return buildServe(cfg, nil) })
	if err != nil {
		return err
	}
	heap := liveHeap()
	timedSeed := derive(cfg.seed, seedTimed)

	// Untraced pass, one session at a time. After each session: the SLO
	// identities, the decorator's view against the SLO's, and the session's
	// arrivals replayed on the sequential Router, which must decide every
	// request identically.
	// One sample per report window of ~64 arrivals (cfg.ops bounds them),
	// a host reading after each and two at each end of a session.
	p := newPass(cfg.ops)
	host := newHostRef(cfg.ops/32 + 5*svSessions)
	var offered, accepted int64
	for j := 0; j < svSessions; j++ {
		_, arrivals := segment(cfg.ops, svSessions, j)
		rec := s.recs[j]
		rec.perReq = make([]uint64, 0, arrivals)
		es0 := s.ses[j].Stats()
		var slo stats.SLO
		if err := s.serveSession(cfg, j, newServeSource(s.nw, derive(timedSeed, uint64(j))), &slo, p, host); err != nil {
			return err
		}
		sn := slo.Snapshot()
		p.ops += sn.Offered + sn.Departed
		offered += sn.Offered
		accepted += sn.Accepted
		es := s.ses[j].Stats()
		rep.expect("serve: offered = accepted + rejected", sn.Offered, sn.Accepted+sn.Rejected)
		rep.expect("serve: accepted = departed + live", sn.Accepted, sn.Departed+sn.Live)
		rep.expect("serve: engine requests = offered", es.Requests-es0.Requests, sn.Offered)
		rep.expect("serve: engine accepts = accepted", es.Accepted-es0.Accepted, sn.Accepted)
		rep.expect("serve: decorator behind p99 = SLO p99", rec.behind.Quantile(0.99), sn.P99)

		rt := route.NewRepairedRouter(s.inst)
		rt.EnablePathReuse()
		ref := newRecEngine(rt, nil)
		ref.perReq = make([]uint64, 0, arrivals)
		var refSLO stats.SLO
		if err := netsim.Serve(ref, newServeSource(s.nw, derive(timedSeed, uint64(j))),
			netsim.ServeConfig{MaxArrivals: int64(arrivals)}, &refSLO); err != nil {
			return err
		}
		if n := mismatches(rec.perReq, ref.perReq); n > 0 {
			rep.fail(n, "serve: %d of %d requests of session %d decided differently on the Router", n, sn.Offered, j)
		}
		rn := refSLO.Snapshot()
		rep.expect("serve: Router replay accepted", rn.Accepted, sn.Accepted)
		rep.expect("serve: Router replay behind p99", rn.P99, sn.P99)
	}
	rep.attempted = offered
	behind := s.behind().Quantile(0.99)
	rep.endToEnd(p, host, setupSecs, heap, ratio(accepted, offered), behind)
	if !cfg.trace {
		return nil
	}

	// Traced pass on a fresh set-up of the same seed, over the same
	// sessions.
	tr := newTracer(4*cfg.ops + 1024)
	ts, err := buildServe(cfg, tr)
	if err != nil {
		return err
	}
	var st0, st route.ShardedStats
	for _, se := range ts.ses {
		st0 = addStats(st0, se.ShardedStats())
	}
	tp := newPass(cfg.ops)
	var tAccepted int64
	var allocs uint64
	tr.start()
	for j := 0; j < svSessions; j++ {
		first, _ := segment(cfg.ops, svSessions, j)
		src := &tracedSource{src: newServeSource(ts.nw, derive(timedSeed, uint64(j))), tr: tr, n: first}
		var slo stats.SLO
		m0 := mallocs()
		err := ts.serveSession(cfg, j, src, &slo, tp, nil)
		allocs += mallocs() - m0
		if err != nil {
			return err
		}
		tAccepted += slo.Snapshot().Accepted
	}
	tr.stop()
	rep.expect("serve: traced accepted", tAccepted, accepted)
	rep.expect("serve: traced behind p99", ts.behind().Quantile(0.99), behind)
	for _, se := range ts.ses {
		st = addStats(st, se.ShardedStats())
	}
	rep.count("runtime.allocs_per_op", float64(allocs)/float64(p.ops), "count")
	rep.routeCounts(st0, st)
	for _, name := range []string{"fault.diff_entries", "core.mask_edges", "core.flipped_vertices"} {
		rep.count(name, 0, "count")
	}
	rep.layerSplit(tr, p.ops, p.wall)
	return tr.writeSpans(fmt.Sprintf("%s/spans-serve-n256.tsv.gz", cfg.outDir))
}

// mismatches counts the positions where two per-request records differ,
// a missing entry on either side counting as a difference.
func mismatches(a, b []uint64) int64 {
	n := int64(max(len(a), len(b)) - min(len(a), len(b)))
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
