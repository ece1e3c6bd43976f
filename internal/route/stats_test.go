package route_test

// Direct coverage for ShardedStats: the counter identities and their
// agreement with the Engine-seam view, previously exercised only
// incidentally by the differential harnesses.

import (
	"testing"

	"ftcsn/internal/netsim/netsimtest"
	"ftcsn/internal/route"
)

// statsIdentities checks the bookkeeping invariants every serving history
// must satisfy: each request is accepted or rejected exactly once, every
// accept is a fast-path commit, and the counters kept only for e2ebench
// stay zero.
func statsIdentities(t *testing.T, st route.ShardedStats) {
	t.Helper()
	if st.Requests != st.Accepted+st.EndpointRejects+st.ProbeRejects {
		t.Errorf("requests %d != accepted %d + endpoint rejects %d + probe rejects %d",
			st.Requests, st.Accepted, st.EndpointRejects, st.ProbeRejects)
	}
	if st.FastPath != st.Accepted {
		t.Errorf("fastpath %d != accepted %d", st.FastPath, st.Accepted)
	}
	if st.Fallbacks != 0 || st.PrefilterSweeps != 0 || st.PrefilterRejects != 0 {
		t.Errorf("unwritten counters moved: %+v", st)
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

// TestShardedStatsIdentitiesUnderChurn drives faulted churn, where probes
// find no path, plus one request for a busy endpoint, and checks every
// counter identity plus the seam view.
func TestShardedStatsIdentitiesUnderChurn(t *testing.T) {
	nw := buildNet(t, 2)
	m := repairedMasks(t, nw, 0.04, 0x151)
	se := route.NewShardedEngine(nw.G, 1)
	se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	wl := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 0x57A7)
	var res []route.Result
	n := len(nw.Inputs())
	for round := 0; round < 40; round++ {
		reqs := wl.NextConnects(n)
		res = se.ConnectBatch(reqs, res)
		wl.Commit(res[:len(reqs)])
		for _, rel := range wl.NextReleases(n / 3) {
			if err := se.Disconnect(rel.In, rel.Out); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The workload only asks for idle endpoints; re-request a live
	// circuit to add an endpoint reject.
	for _, r := range res {
		if se.PathOf(r.In, r.Out) != nil {
			se.ConnectBatch([]route.Request{r.Request}, nil)
			break
		}
	}
	st := se.ShardedStats()
	statsIdentities(t, st)
	engineStatsMatch(t, se)
	if st.Accepted == 0 || st.EndpointRejects == 0 || st.ProbeRejects == 0 {
		t.Fatalf("stream does not exercise every outcome: %+v", st)
	}
}
