package netsim_test

import (
	"math"
	"testing"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

func openLoopSource(nw *core.Network, seed uint64, rate float64) *netsim.TrafficSource {
	return netsim.NewTrafficSource(seed,
		netsim.NewPoisson(rate),
		netsim.NewExpHolding(4.0),
		netsim.NewUniformPattern(nw.Inputs(), nw.Outputs()))
}

// TestServeDeterministic: two runs with the same (seed, config) produce
// identical cumulative snapshots and identical windowed report
// sequences, on both the sequential router and the sharded engine.
func TestServeDeterministic(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]func() route.Engine{
		"router":  func() route.Engine { return route.NewRouter(nw.G) },
		"sharded": func() route.Engine { return route.NewShardedEngine(nw.G, 1) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			run := func() (stats.SLOSnapshot, []stats.SLOSnapshot) {
				var windows []stats.SLOSnapshot
				var slo stats.SLO
				cfg := netsim.ServeConfig{
					MaxArrivals: 3000,
					ReportEvery: 25.0,
					OnReport:    func(tm float64, s *stats.SLO) { windows = append(windows, s.Window()) },
				}
				if err := netsim.Serve(mk(), openLoopSource(nw, 0x5EED, 6.0), cfg, &slo); err != nil {
					t.Fatal(err)
				}
				return slo.Snapshot(), windows
			}
			s1, w1 := run()
			s2, w2 := run()
			if s1 != s2 {
				t.Fatalf("cumulative snapshots differ:\n%+v\n%+v", s1, s2)
			}
			if len(w1) == 0 || len(w1) != len(w2) {
				t.Fatalf("window counts: %d vs %d (want equal, > 0)", len(w1), len(w2))
			}
			for i := range w1 {
				if w1[i] != w2[i] {
					t.Fatalf("window %d differs:\n%+v\n%+v", i, w1[i], w2[i])
				}
			}
		})
	}
}

// TestServeAccounting: conservation invariants between the SLO view and
// the engine's own counters.
func TestServeAccounting(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	se := route.NewShardedEngine(nw.G, 1)
	var slo stats.SLO
	err = netsim.Serve(se, openLoopSource(nw, 42, 8.0), netsim.ServeConfig{MaxArrivals: 2000}, &slo)
	if err != nil {
		t.Fatal(err)
	}
	sn := slo.Snapshot()
	if sn.Offered != 2000 {
		t.Fatalf("offered %d, want 2000", sn.Offered)
	}
	if sn.Accepted+sn.Rejected != sn.Offered {
		t.Fatalf("accepted %d + rejected %d != offered %d", sn.Accepted, sn.Rejected, sn.Offered)
	}
	// Unbounded horizon: every admitted circuit departs by the end.
	if sn.Departed != sn.Accepted || sn.Live != 0 {
		t.Fatalf("departed %d / live %d, want all %d accepted gone", sn.Departed, sn.Live, sn.Accepted)
	}
	if int64(se.ActiveCircuits()) != sn.Live {
		t.Fatalf("engine still holds %d circuits", se.ActiveCircuits())
	}
	es := se.Stats()
	if es.Accepted != sn.Accepted || es.Rejected != sn.Rejected {
		t.Fatalf("engine stats %+v disagree with SLO %+v", es, sn)
	}
	if sn.PeakLive <= 0 || sn.OfferedLoad <= 0 {
		t.Fatalf("degenerate gauges: %+v", sn)
	}
}

// TestServeBatchingDecisionNeutral: batching is a latency/throughput
// knob, not a semantics knob — for sequential-batch engines the decision
// stream is independent of MaxBatch, so everything but the events-behind
// histogram matches between MaxBatch=1 and MaxBatch=64, across engines.
func TestServeBatchingDecisionNeutral(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	run := func(eng route.Engine, maxBatch int) stats.SLOSnapshot {
		var slo stats.SLO
		cfg := netsim.ServeConfig{MaxArrivals: 3000, MaxBatch: maxBatch}
		if err := netsim.Serve(eng, openLoopSource(nw, 0xD1FF, 10.0), cfg, &slo); err != nil {
			t.Fatal(err)
		}
		return slo.Snapshot()
	}
	rt := route.NewRouter(nw.G)
	one := run(rt, 1)
	se := route.NewShardedEngine(nw.G, 1)
	big := run(se, 64)
	if one.Offered != big.Offered || one.Accepted != big.Accepted ||
		one.Rejected != big.Rejected || one.Departed != big.Departed {
		t.Fatalf("decisions depend on batching/engine:\nMaxBatch=1 router: %+v\nMaxBatch=64 sharded: %+v", one, big)
	}
	if one.MaxBehind != 0 {
		t.Fatalf("MaxBatch=1 run reports nonzero events-behind latency: %d", one.MaxBehind)
	}
	if big.End != one.End {
		t.Fatalf("virtual end times differ: %v vs %v", one.End, big.End)
	}
}

// TestServeHorizon: arrivals after the horizon are discarded and only
// departures due by it drain.
func TestServeHorizon(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	se := route.NewShardedEngine(nw.G, 1)
	var slo stats.SLO
	if err := netsim.Serve(se, openLoopSource(nw, 7, 5.0), netsim.ServeConfig{Horizon: 40.0}, &slo); err != nil {
		t.Fatal(err)
	}
	sn := slo.Snapshot()
	if sn.End > 40.0 {
		t.Fatalf("events past the horizon: end %v", sn.End)
	}
	if sn.Offered < 150 {
		t.Fatalf("suspiciously few arrivals before horizon: %d", sn.Offered)
	}
	// Long-held circuits straddle the horizon and stay live.
	if sn.Live != sn.Accepted-sn.Departed {
		t.Fatalf("live %d != accepted %d - departed %d", sn.Live, sn.Accepted, sn.Departed)
	}
	if int64(se.ActiveCircuits()) != sn.Live {
		t.Fatalf("engine live count %d != SLO live %d", se.ActiveCircuits(), sn.Live)
	}
}

// TestServeOverloadMonotonic: on a fixed faulty (repaired) network, the
// rejection rate rises monotonically with offered load and is clearly
// positive in deep overload.
func TestServeOverloadMonotonic(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	var fr rng.RNG
	fr.Reseed(99)
	inst := fault.Inject(nw.G, fault.Symmetric(0.04), &fr)
	prev := -1.0
	var rates []float64
	for _, rate := range []float64{1.0, 4.0, 16.0, 64.0} {
		rt := route.NewRepairedRouter(inst)
		src := netsim.NewTrafficSource(0x10AD,
			netsim.NewPoisson(rate),
			netsim.NewExpHolding(4.0),
			netsim.NewUniformPattern(nw.Inputs(), nw.Outputs()))
		var slo stats.SLO
		if err := netsim.Serve(rt, src, netsim.ServeConfig{MaxArrivals: 4000}, &slo); err != nil {
			t.Fatal(err)
		}
		rr := slo.Snapshot().RejectRate
		if rr < prev {
			t.Fatalf("rejection rate fell from %v to %v as offered load rose (rates so far %v)", prev, rr, rates)
		}
		prev = rr
		rates = append(rates, rr)
	}
	if prev < 0.2 {
		t.Fatalf("deep overload rejects only %v of arrivals; rates %v", prev, rates)
	}
	if rates[len(rates)-1] <= rates[0] {
		t.Fatalf("rejection rate never rose across a 64× load sweep: %v", rates)
	}
}

// TestServeConfigValidation: nil seams and unbounded configs are refused.
func TestServeConfigValidation(t *testing.T) {
	nw, err := core.Build(core.Params{Nu: 1, Gamma: 0, M: 4, DQ: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt := route.NewRouter(nw.G)
	src := openLoopSource(nw, 1, 1.0)
	var slo stats.SLO
	if err := netsim.Serve(nil, src, netsim.ServeConfig{Horizon: 1}, &slo); err == nil {
		t.Fatal("nil engine accepted")
	}
	if err := netsim.Serve(rt, src, netsim.ServeConfig{}, &slo); err == nil {
		t.Fatal("unbounded config accepted")
	}
	if err := netsim.Serve(rt, src, netsim.ServeConfig{Horizon: -1, MaxArrivals: 5}, &slo); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

// TestServeConfigRejectsNonFinite: NaN passes a < 0 test and an infinite
// horizon or report interval never ends the run, so Serve refuses every
// non-finite Horizon and ReportEvery up front, whether or not MaxArrivals
// would bound the run.
func TestServeConfigRejectsNonFinite(t *testing.T) {
	nw, err := core.Build(core.Params{Nu: 1, Gamma: 0, M: 4, DQ: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt := route.NewRouter(nw.G)
	src := openLoopSource(nw, 1, 1.0)
	var slo stats.SLO
	onReport := func(float64, *stats.SLO) {}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, cfg := range []netsim.ServeConfig{
			{Horizon: x},
			{Horizon: x, MaxArrivals: 5},
			{Horizon: 10, ReportEvery: x, OnReport: onReport},
			{MaxArrivals: 5, ReportEvery: x},
		} {
			if err := netsim.Serve(rt, src, cfg, &slo); err == nil {
				t.Fatalf("config %+v accepted", cfg)
			}
		}
	}
}

// TestOpenLoopServeAllocFree: a warm Loop serves with zero steady-state
// allocations per event — the acceptance gate for the open-loop path.
func TestOpenLoopServeAllocFree(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	se := route.NewShardedEngine(nw.G, 1)
	src := openLoopSource(nw, 0xA110C, 8.0)
	var l netsim.Loop
	var slo stats.SLO
	cfg := netsim.ServeConfig{MaxArrivals: 800}
	run := func() {
		src.Reset(0xA110C)
		se.Reset()
		slo = stats.SLO{}
		if err := l.Serve(se, src, cfg, &slo); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the loop scratch (heap, batch slices)
	allocs := testing.AllocsPerRun(3, run)
	if allocs != 0 {
		t.Fatalf("warm open-loop serve allocates %v per run (800 events), want 0", allocs)
	}
}
