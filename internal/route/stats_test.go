package route_test

// Direct coverage for ShardedStats: the counter identities, the fast-path/
// fallback split, and the adaptive per-shard prefilter's engage/disengage
// transitions — previously exercised only incidentally by the differential
// harnesses.

import (
	"slices"
	"testing"

	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/stats"
)

// statsIdentities checks the bookkeeping invariants every serving history
// must satisfy.
func statsIdentities(t *testing.T, st route.ShardedStats) {
	t.Helper()
	if st.Accepted != st.FastPath+st.Fallbacks {
		t.Errorf("accepted %d != fastpath %d + fallbacks %d", st.Accepted, st.FastPath, st.Fallbacks)
	}
	rejects := st.EndpointRejects + st.PrefilterRejects + st.ProbeRejects + st.CommitRejects
	if st.Requests != st.Accepted+rejects {
		t.Errorf("requests %d != accepted %d + rejects %d", st.Requests, st.Accepted, rejects)
	}
	// A conflicted speculation re-probes and then either commits (fallback)
	// or rejects at commit time.
	if st.Conflicts > st.Fallbacks+st.CommitRejects {
		t.Errorf("conflicts %d > fallbacks %d + commit rejects %d", st.Conflicts, st.Fallbacks, st.CommitRejects)
	}
	if st.PrefilterDisengages > st.PrefilterEngages {
		t.Errorf("disengages %d > engages %d", st.PrefilterDisengages, st.PrefilterEngages)
	}
}

// engineStatsMatch checks the Engine-seam view agrees with the detailed
// counters.
func engineStatsMatch(t *testing.T, se *route.ShardedEngine) {
	t.Helper()
	es, st := se.Stats(), se.ShardedStats()
	if es.Batches != st.Batches || es.Requests != st.Requests || es.Accepted != st.Accepted {
		t.Errorf("EngineStats %+v disagrees with ShardedStats %+v", es, st)
	}
	if es.Rejected != st.Requests-st.Accepted {
		t.Errorf("EngineStats.Rejected %d != requests-accepted %d", es.Rejected, st.Requests-st.Accepted)
	}
}

// TestShardedStatsIdentitiesUnderChurn drives faulted churn (endpoint,
// prefilter, probe, and commit rejects all possible) and checks every
// counter identity plus the seam view.
func TestShardedStatsIdentitiesUnderChurn(t *testing.T) {
	nw := buildNet(t, 2)
	m := repairedMasks(t, nw, 0.04, 0x151)
	for _, pf := range []route.PrefilterMode{route.PrefilterAuto, route.PrefilterOn, route.PrefilterOff} {
		se := route.NewShardedEngine(nw.G, 3)
		se.Prefilter = pf
		se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
		wl := netsim.NewWorkload(nw.Inputs(), nw.Outputs(), 0x57A7)
		var res []route.Result
		n := len(nw.Inputs())
		for round := 0; round < 40; round++ {
			reqs := wl.NextConnects(n)
			res = se.ServeBatch(reqs, res)
			wl.Commit(res[:len(reqs)])
			for _, rel := range wl.NextReleases(n / 3) {
				if err := se.Disconnect(rel.In, rel.Out); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := se.ShardedStats()
		statsIdentities(t, st)
		engineStatsMatch(t, se)
		if st.Accepted == 0 || st.Requests == 0 {
			t.Fatalf("pf=%d: degenerate stream (requests=%d accepted=%d)", pf, st.Requests, st.Accepted)
		}
		if pf == route.PrefilterOn && st.PrefilterSweeps == 0 {
			t.Error("PrefilterOn never swept")
		}
		// Engage/disengage state keeps tracking in every mode (so a later
		// switch to Auto acts on fresh evidence), but Off must never sweep.
		if pf == route.PrefilterOff && (st.PrefilterSweeps != 0 || st.PrefilterRejects != 0) {
			t.Errorf("PrefilterOff swept: %+v", st)
		}
	}
}

// TestShardedFallbackCounters forces cross-shard conflicts (saturating
// permutation from an empty network, many shards) and checks the fallback
// path is counted coherently.
func TestShardedFallbackCounters(t *testing.T) {
	nw := buildNet(t, 3)
	n := len(nw.Inputs())
	perm := rng.New(7).Perm(n)
	reqs := make([]route.Request, n)
	for i := range reqs {
		reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
	}
	se := route.NewShardedEngine(nw.G, 8)
	var res []route.Result
	for epoch := 0; epoch < 3; epoch++ {
		res = se.ServeBatch(reqs, res)
		se.Reset()
	}
	st := se.ShardedStats()
	statsIdentities(t, st)
	if st.Fallbacks == 0 {
		t.Error("saturating batches produced no fallbacks; conflict path uncounted")
	}
	if st.Conflicts == 0 {
		t.Error("saturating batches produced no invalidated speculative paths")
	}
}

// TestAdaptivePrefilterEngageDisengage: a shard must engage after a batch
// whose no-path share of its screened requests is ≥ 1/16, sweep from the
// following batch on, and disengage again after the stream turns healthy.
func TestAdaptivePrefilterEngageDisengage(t *testing.T) {
	nw := buildNet(t, 2)
	bad := repairedMasks(t, nw, 0.04, 0x151) // known to produce path rejects
	good := repairedMasks(t, nw, 0, 1)       // fault-free
	se := route.NewShardedEngine(nw.G, 1)
	se.Prefilter = route.PrefilterAuto
	se.SetMasksShared(bad.VertexOK, bad.EdgeOK, bad.OutAllowed)

	wl := netsim.NewWorkload(nw.Inputs(), nw.Outputs(), 0xBAD)
	var res []route.Result
	n := len(nw.Inputs())
	for round := 0; round < 25; round++ {
		reqs := wl.NextConnects(n)
		res = se.ServeBatch(reqs, res)
		wl.Commit(res[:len(reqs)])
		for _, rel := range wl.NextReleases(n / 2) {
			if err := se.Disconnect(rel.In, rel.Out); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := se.ShardedStats()
	if st.PrefilterEngages == 0 {
		t.Fatal("faulted stream never engaged the adaptive prefilter")
	}
	if st.PrefilterSweeps == 0 {
		t.Fatal("engaged shard never swept")
	}

	// Healthy masks: everything connects, the shard must disengage.
	se.SetMasksShared(good.VertexOK, good.EdgeOK, good.OutAllowed)
	wl2 := netsim.NewWorkload(nw.Inputs(), nw.Outputs(), 0x600D)
	for round := 0; round < 6; round++ {
		reqs := wl2.NextConnects(4)
		res = se.ServeBatch(reqs, res)
		wl2.Commit(res[:len(reqs)])
		for _, rel := range wl2.NextReleases(4) {
			if err := se.Disconnect(rel.In, rel.Out); err != nil {
				t.Fatal(err)
			}
		}
	}
	st = se.ShardedStats()
	if st.PrefilterDisengages == 0 {
		t.Fatal("healthy stream never disengaged the adaptive prefilter")
	}
	statsIdentities(t, st)
}

// TestAdaptivePrefilterIsPerShard: no-path rejects concentrated on one
// shard's inputs must engage that shard alone — the locality the per-shard
// policy exists for. A batch whose requests all fail endpoint screening
// gives no evidence either way (nothing in it reaches a sweep), so every
// shard keeps its state through it, engaged or not; afterwards only the
// engaged shard sweeps.
func TestAdaptivePrefilterIsPerShard(t *testing.T) {
	nw := buildNet(t, 3) // n=64: every batch below is big enough to run phase A on the workers
	const S = 2

	// Split inputs by the engine's own shard function (in % S) and block
	// every out-edge of every shard-0 input. The inputs themselves stay
	// usable and idle, so their requests pass endpoint screening and fail
	// the snapshot path hunt: the no-path rejects a sweep can catch.
	edgeOK := make([]bool, nw.G.NumEdges())
	for e := range edgeOK {
		edgeOK[e] = true
	}
	var shard0, shard1 []int32
	for _, in := range nw.Inputs() {
		if int(in)%S != 0 {
			shard1 = append(shard1, in)
			continue
		}
		shard0 = append(shard0, in)
		for _, e := range nw.G.OutEdges(in) {
			edgeOK[e] = false
		}
	}
	if len(shard0) == 0 || len(shard1) < 2 {
		t.Skip("input IDs do not split across both shards; locality not testable here")
	}
	se := route.NewShardedEngine(nw.G, S)
	se.Prefilter = route.PrefilterAuto
	se.SetMasksShared(nil, edgeOK, nw.G.BuildOutAllowed(edgeOK, nil, nil))

	// Outputs: outs[:len(shard0)] are shard 0's targets; shard 1 connects
	// its first k inputs to the next k outputs and later routes its other
	// inputs to the rest.
	outs := nw.Outputs()
	k := len(shard1) / 2
	held, free := outs[len(shard0):len(shard0)+k], outs[len(shard0)+k:]
	serve := func(reqs []route.Request, wantPaths []bool) route.ShardedStats {
		t.Helper()
		for i, r := range se.ServeBatch(reqs, nil) {
			if (r.Path != nil) != wantPaths[i] {
				t.Fatalf("request %d (%d→%d): path %v, want accepted=%v", i, r.In, r.Out, r.Path, wantPaths[i])
			}
		}
		st := se.ShardedStats()
		statsIdentities(t, st)
		return st
	}
	var reqs []route.Request
	var want []bool
	add := func(in, out int32, accept bool) {
		reqs = append(reqs, route.Request{In: in, Out: out})
		want = append(want, accept)
	}

	// Batch 1: shard 0 is refused for want of a path, shard 1 connects.
	for i, in := range shard0 {
		add(in, outs[i], false)
	}
	for i, out := range held {
		add(shard1[i], out, true)
	}
	st := serve(reqs, want)
	if st.ProbeRejects != int64(len(shard0)) || st.EndpointRejects != 0 {
		t.Fatalf("want %d probe rejects and no endpoint rejects: %+v", len(shard0), st)
	}
	if st.PrefilterEngages != 1 {
		t.Fatalf("want exactly the blocked shard engaged, got %d engage transitions", st.PrefilterEngages)
	}

	// Batch 2, endpoint rejects only: shard 0 aims at outputs shard 1
	// holds, shard 1 starts from inputs it holds. No transition, no sweep.
	reqs, want = reqs[:0], want[:0]
	for i, in := range shard0 {
		add(in, held[i%k], false)
	}
	for i := range held {
		add(shard1[i], outs[i], false)
	}
	st = serve(reqs, want)
	if st.EndpointRejects != int64(len(reqs)) {
		t.Fatalf("want %d endpoint rejects: %+v", len(reqs), st)
	}
	if st.PrefilterEngages != 1 || st.PrefilterDisengages != 0 || st.PrefilterSweeps != 0 {
		t.Fatalf("endpoint-only batch moved the policy or swept: %+v", st)
	}

	// Batch 3: both shards have screened requests, but only shard 0 sweeps
	// (one lane group), and its sweep catches exactly the blocked requests.
	reqs, want = reqs[:0], want[:0]
	for i, in := range shard0 {
		add(in, outs[i], false)
	}
	for i, out := range free {
		add(shard1[k+i], out, true)
	}
	st = serve(reqs, want)
	if st.PrefilterSweeps != 1 || st.PrefilterRejects != int64(len(shard0)) {
		t.Fatalf("want one sweep rejecting the %d blocked requests: %+v", len(shard0), st)
	}
	if st.PrefilterEngages != 1 || st.PrefilterDisengages != 0 {
		t.Fatalf("policy moved: %+v", st)
	}
	if st.ParallelBatches != 3 {
		t.Fatalf("%d of 3 batches ran phase A on the workers", st.ParallelBatches)
	}
}

// decisionLog is an Engine decorator recording every request's path (nil
// when rejected), so runs can be compared request by request.
type decisionLog struct {
	*route.ShardedEngine
	paths [][]int32
}

func (d *decisionLog) ConnectBatch(reqs []route.Request, res []route.Result) []route.Result {
	res = d.ShardedEngine.ConnectBatch(reqs, res)
	for _, r := range res[:len(reqs)] {
		d.paths = append(d.paths, append([]int32(nil), r.Path...))
	}
	return res
}

// TestAdaptivePrefilterIgnoresBusyEndpoints pins the open-loop serving
// pattern: an overloaded stream on the fault-free network refuses many
// requests at a busy endpoint and none for want of a path. Endpoint rejects
// never reach a sweep, so PrefilterAuto must never engage; PrefilterOn's
// sweeps show there was nothing to catch; and all three modes decide and
// route every request identically.
func TestAdaptivePrefilterIgnoresBusyEndpoints(t *testing.T) {
	nw := buildNet(t, 2)
	run := func(pf route.PrefilterMode) ([][]int32, route.ShardedStats) {
		se := route.NewShardedEngine(nw.G, 2)
		se.Prefilter = pf
		d := &decisionLog{ShardedEngine: se}
		src := netsim.NewTrafficSource(0x5E4E, netsim.NewPoisson(16), netsim.NewExpHolding(4),
			netsim.NewUniformPattern(nw.Inputs(), nw.Outputs()))
		var slo stats.SLO
		if err := netsim.Serve(d, src, netsim.ServeConfig{MaxArrivals: 3000}, &slo); err != nil {
			t.Fatal(err)
		}
		st := se.ShardedStats()
		statsIdentities(t, st)
		return d.paths, st
	}
	auto, st := run(route.PrefilterAuto)
	if st.EndpointRejects == 0 || st.PrefilterEngages != 0 || st.PrefilterSweeps != 0 {
		t.Fatalf("auto: want endpoint rejects and no engage or sweep: %+v", st)
	}
	on, stOn := run(route.PrefilterOn)
	if stOn.PrefilterSweeps == 0 || stOn.PrefilterRejects != 0 {
		t.Fatalf("on: want sweeps that reject nothing: %+v", stOn)
	}
	off, _ := run(route.PrefilterOff)
	for name, got := range map[string][][]int32{"on": on, "off": off} {
		if len(got) != len(auto) {
			t.Fatalf("%s served %d requests, auto %d", name, len(got), len(auto))
		}
		for i := range auto {
			if !slices.Equal(got[i], auto[i]) {
				t.Fatalf("request %d: %s path %v, auto path %v", i, name, got[i], auto[i])
			}
		}
	}
}
