package netsim_test

import (
	"testing"

	"ftcsn/internal/core"
	"ftcsn/internal/netsim/netsimtest"
	"ftcsn/internal/route"
)

func buildSmall(t testing.TB) *core.Network {
	t.Helper()
	nw, err := core.Build(core.Params{Nu: 1, Gamma: 0, M: 4, DQ: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// acceptedPath marks a request accepted in a hand-built decision slice.
var acceptedPath = []int32{}

// decisions builds the []route.Result feedback slice for a batch from an
// arbitrary accept predicate — test-side scaffolding for driving Commit
// without a real engine.
func decisions(reqs []route.Request, ok func(i int) bool) []route.Result {
	res := make([]route.Result, len(reqs))
	for i := range res {
		res[i].Request = reqs[i]
		if ok(i) {
			res[i].Path = acceptedPath
		}
	}
	return res
}

// TestWorkloadDeterminism: two workloads with the same seed and the same
// decision feedback produce identical request streams.
func TestWorkloadDeterminism(t *testing.T) {
	nw := buildSmall(t)
	a := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 7)
	b := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 7)
	for round := 0; round < 20; round++ {
		ra := a.NextConnects(3)
		rb := b.NextConnects(3)
		if len(ra) != len(rb) {
			t.Fatalf("round %d: batch sizes differ: %d vs %d", round, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("round %d req %d: %v vs %v", round, i, ra[i], rb[i])
			}
		}
		// Identical (arbitrary) decision feedback keeps them in lockstep.
		a.Commit(decisions(ra, func(i int) bool { return i%2 == 0 }))
		b.Commit(decisions(rb, func(i int) bool { return i%2 == 0 }))
		la := a.NextReleases(1)
		lb := b.NextReleases(1)
		if len(la) != len(lb) || (len(la) > 0 && la[0] != lb[0]) {
			t.Fatalf("round %d: releases differ: %v vs %v", round, la, lb)
		}
	}
}

// TestWorkloadPoolsConsistent: endpoints move idle→pending→live/idle→idle
// without loss or duplication.
func TestWorkloadPoolsConsistent(t *testing.T) {
	nw := buildSmall(t)
	n := len(nw.Inputs())
	w := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 3)
	for round := 0; round < 50; round++ {
		reqs := w.NextConnects(3)
		w.Commit(decisions(reqs, func(i int) bool { return (round+i)%3 != 0 }))
		if w.Live()+w.Idle() != n {
			t.Fatalf("round %d: live %d + idle %d != %d", round, w.Live(), w.Idle(), n)
		}
		w.NextReleases(2)
		if w.Live()+w.Idle() != n {
			t.Fatalf("round %d post-release: live %d + idle %d != %d", round, w.Live(), w.Idle(), n)
		}
	}
}

// TestWorkloadCommitShortResults: Commit must refuse a result slice that
// does not cover the pending batch.
func TestWorkloadCommitShortResults(t *testing.T) {
	nw := buildSmall(t)
	w := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 9)
	reqs := w.NextConnects(3)
	if len(reqs) < 2 {
		t.Fatalf("batch too small to test: %d", len(reqs))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Commit accepted a short result slice")
		}
	}()
	w.Commit(decisions(reqs[:len(reqs)-1], func(int) bool { return true }))
}

// TestWorkloadAgreesAcrossEngines: the same workload stream fed to the
// sequential router and the sharded engine yields identical live sets —
// the wiring that lets E9 put both engines on one operational column.
func TestWorkloadAgreesAcrossEngines(t *testing.T) {
	nw := buildSmall(t)
	rt := route.NewRouter(nw.G)
	se := route.NewShardedEngine(nw.G, 1)
	wa := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 5)
	wb := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 5)
	var res []route.Result
	for round := 0; round < 40; round++ {
		ra := wa.NextConnects(3)
		rb := wb.NextConnects(3)
		res = se.ConnectBatch(rb, res)
		for i, rq := range ra {
			_, err := rt.Connect(rq.In, rq.Out)
			if (err == nil) != (res[i].Path != nil) {
				t.Fatalf("round %d req %d: engines disagree", round, i)
			}
		}
		wa.Commit(res[:len(ra)])
		wb.Commit(res[:len(rb)])
		for _, rel := range wa.NextReleases(2) {
			rt.Disconnect(rel.In, rel.Out)
		}
		for _, rel := range wb.NextReleases(2) {
			se.Disconnect(rel.In, rel.Out)
		}
	}
	if wa.Live() != wb.Live() {
		t.Fatalf("live sets diverged: %d vs %d", wa.Live(), wb.Live())
	}
}

// TestWorkloadDecisionStreamGolden pins the closed-loop decision stream
// across the Commit API redesign: the FNV-1a fold of every request,
// decision bit, release, and live count over 200 rounds against the
// sequential router was captured with the pre-redesign callback API and
// must never drift. This is the bit-identity proof the differential
// harnesses rely on.
func TestWorkloadDecisionStreamGolden(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	wl := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 0xF00D)
	rt := route.NewRouter(nw.G)
	var res []route.Result
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211 // FNV-1a prime
	}
	for round := 0; round < 200; round++ {
		reqs := wl.NextConnects(4)
		res = rt.ConnectBatch(reqs, res)
		for i, rq := range reqs {
			mix(uint64(uint32(rq.In)))
			mix(uint64(uint32(rq.Out)))
			if res[i].Path != nil {
				mix(1)
			} else {
				mix(0)
			}
		}
		wl.Commit(res[:len(reqs)])
		for _, rel := range wl.NextReleases(2) {
			mix(uint64(uint32(rel.In)))
			mix(uint64(uint32(rel.Out)))
			if err := rt.Disconnect(rel.In, rel.Out); err != nil {
				t.Fatal(err)
			}
		}
		mix(uint64(wl.Live()))
	}
	const want = uint64(0xE399321CDF6A71C4)
	if h != want {
		t.Fatalf("decision stream hash 0x%016X, want 0x%016X", h, want)
	}
}
