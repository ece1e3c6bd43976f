package route_test

// External test package: route cannot import core (core depends on
// route), but the shared-traversal-byte contract is between
// core.MaskUpdater and the engines, so it is exercised here.

import (
	"slices"
	"testing"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// sameResults fails the test unless a and b agree on every decision and
// path.
func sameResults(t *testing.T, label string, a, b []route.Result) {
	t.Helper()
	for i := range a {
		if !slices.Equal(a[i].Path, b[i].Path) {
			t.Fatalf("%s: request %d: paths differ: %v vs %v", label, i, a[i].Path, b[i].Path)
		}
	}
}

// TestRepairedShardedEngineMatchesSharedMasks: a sharded engine that
// derived the repaired network itself from the fault instance, one that
// adopts core.MaskUpdater's incrementally maintained masks and traversal
// bytes, and the repaired sequential router must serve a permutation batch
// identically.
func TestRepairedShardedEngineMatchesSharedMasks(t *testing.T) {
	nw := buildNet(t, 2)
	inst := fault.NewInstance(nw.G)
	fault.InjectInto(inst, fault.Symmetric(0.01), rng.New(11))

	mu := core.NewMaskUpdater(nw.G)
	var m core.Masks
	mu.Init(inst, &m)

	n := len(nw.Inputs())
	perm := rng.New(12).Perm(n)
	reqs := make([]route.Request, n)
	for i := range reqs {
		reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
	}
	for _, shards := range []int{1, 4} {
		owned := route.NewRepairedShardedEngine(inst, shards)
		shared := route.NewShardedEngine(nw.G, shards)
		shared.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
		want := route.NewRepairedRouter(inst).ConnectBatch(reqs, nil)
		sameResults(t, "owned vs router", owned.ConnectBatch(reqs, nil), want)
		sameResults(t, "shared vs router", shared.ConnectBatch(reqs, nil), want)
		for _, se := range []*route.ShardedEngine{owned, shared} {
			if err := se.VerifyState(); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
		}
	}
}

// TestShardedSharedMasksTrackUpdates: the adopted slices are shared, so a
// MaskUpdater.Apply (and its Revert) between batches, announced through
// MasksChangedDiff, shows up in the next batch exactly as a freshly
// repaired router sees it. The revert leg fails if the guide is not
// refreshed: a guide left from the faulty epoch would prune the restored
// path.
func TestShardedSharedMasksTrackUpdates(t *testing.T) {
	nw := buildNet(t, 1)
	inst := fault.NewInstance(nw.G)
	mu := core.NewMaskUpdater(nw.G)
	var m core.Masks
	mu.Init(inst, &m)

	se := route.NewShardedEngine(nw.G, 2)
	se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)

	reqs := []route.Request{{In: nw.Inputs()[0], Out: nw.Outputs()[0]}}
	var res []route.Result
	step := func(label string) {
		t.Helper()
		res = se.ConnectBatch(reqs, res)
		sameResults(t, label, res, route.NewRepairedRouter(inst).ConnectBatch(reqs, nil))
		if err := se.VerifyState(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		se.Reset()
	}
	step("fault-free")
	if res[0].Path == nil {
		t.Fatal("fault-free connect failed")
	}
	victim := res[0].Path[1]

	// Fail every switch out of the path's second vertex: the updater
	// recomputes the masks and traversal bytes in place.
	var diff []fault.DiffEntry
	for _, e := range nw.G.OutEdges(victim) {
		diff = append(diff, fault.DiffEntry{Edge: e, Old: inst.Edge[e], New: fault.Open})
		inst.SetState(e, fault.Open)
	}
	edges := mu.Apply(inst, &m, diff)
	se.MasksChangedDiff(mu.ChangedVertices(), edges)
	step("after apply")
	if slices.Contains(res[0].Path, victim) {
		t.Fatalf("path %v passes through discarded vertex %d", res[0].Path, victim)
	}

	edges = mu.Revert(inst, &m, diff)
	se.MasksChangedDiff(mu.ChangedVertices(), edges)
	step("after revert")
	if !slices.Contains(res[0].Path, victim) {
		t.Fatalf("restored path %v does not return through vertex %d", res[0].Path, victim)
	}
}
