package route_test

// Differential and stress harnesses for route.ShardedEngine. The
// engine's contract is strong: accept/reject decisions AND established
// paths are bit-identical to a sequential Router processing the same
// request stream in order, for every batch size. These tests drive
// identical netsimtest.Workload churn streams through both engines and
// compare step by step.

import (
	"errors"
	"fmt"
	"testing"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/netsim/netsimtest"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

func buildNet(t testing.TB, nu int) *core.Network {
	t.Helper()
	nw, err := core.Build(core.Params{Nu: nu, Gamma: 0, M: 8, DQ: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// repairedMasks draws a fault instance at rate eps and returns the
// repaired masks with traversal bytes, as core's pipeline maintains them.
func repairedMasks(t testing.TB, nw *core.Network, eps float64, seed uint64) core.Masks {
	t.Helper()
	inst := fault.NewInstance(nw.G)
	r := rng.New(seed)
	fault.InjectInto(inst, fault.Symmetric(eps), r)
	mu := core.NewMaskUpdater(nw.G)
	var m core.Masks
	mu.Init(inst, &m)
	return m
}

// churnStep is one round of the lockstep differential: serve a connect
// batch on both engines, compare decisions and paths, then release the
// same circuits on both.
type churnDiff struct {
	t       *testing.T
	rt      *route.Router
	se      *route.ShardedEngine
	wl      *netsimtest.Workload
	pieces  int // ConnectBatch calls each round's connects are cut into
	res     []route.Result
	rounds  int
	accepts int
	rejects int
}

func (d *churnDiff) round(batch, releases int) {
	d.t.Helper()
	d.rounds++
	reqs := d.wl.NextConnects(batch)
	d.res = connectInPieces(d.se, reqs, d.pieces, d.res)
	for i, rq := range reqs {
		path, err := d.rt.Connect(rq.In, rq.Out)
		got := d.res[i].Path
		if (err == nil) != (got != nil) {
			d.t.Fatalf("round %d req %d (%d->%d): sequential err=%v, sharded accepted=%v",
				d.rounds, i, rq.In, rq.Out, err, got != nil)
		}
		if err != nil {
			d.rejects++
			continue
		}
		d.accepts++
		if len(path) != len(got) {
			d.t.Fatalf("round %d req %d: path lengths differ: seq %v vs sharded %v",
				d.rounds, i, path, got)
		}
		for j := range path {
			if path[j] != got[j] {
				d.t.Fatalf("round %d req %d: paths diverge at %d: seq %v vs sharded %v",
					d.rounds, i, j, path, got)
			}
		}
	}
	d.wl.Commit(d.res[:len(reqs)])
	for _, rel := range d.wl.NextReleases(releases) {
		if err := d.rt.Disconnect(rel.In, rel.Out); err != nil {
			d.t.Fatalf("round %d: sequential disconnect (%d,%d): %v", d.rounds, rel.In, rel.Out, err)
		}
		if err := d.se.Disconnect(rel.In, rel.Out); err != nil {
			d.t.Fatalf("round %d: sharded disconnect (%d,%d): %v", d.rounds, rel.In, rel.Out, err)
		}
	}
}

// connectInPieces serves reqs on se as k consecutive ConnectBatch calls
// of near-equal size (one call when k <= 1) and returns the results in
// request order.
func connectInPieces(se *route.ShardedEngine, reqs []route.Request, k int, dst []route.Result) []route.Result {
	if k <= 1 {
		return se.ConnectBatch(reqs, dst)
	}
	dst = dst[:0]
	var part []route.Result
	for p := 0; p < k; p++ {
		part = se.ConnectBatch(reqs[p*len(reqs)/k:(p+1)*len(reqs)/k], part)
		dst = append(dst, part...)
	}
	return dst
}

// TestShardedMatchesSequentialChurn locks the headline contract under
// continuous churn (no resets): decisions and paths bit-identical to the
// sequential router across fault rates, batch cuts and guide settings.
// The subtest grid is the one the engine had when it ran shards and a
// prefilter: shards=k now serves each round's connects as k consecutive
// ConnectBatch calls on workload stream k, and auto/on/off run the guide
// at its default width budget, always, or never (the unguided hunt).
func TestShardedMatchesSequentialChurn(t *testing.T) {
	modes := []struct {
		name  string
		limit int // SetGuideLimit argument; -1 keeps the default budget
	}{{"auto", -1}, {"on", 1 << 10}, {"off", 0}}
	for _, nu := range []int{1, 2} {
		nw := buildNet(t, nu)
		for _, eps := range []float64{0, 0.01, 0.05} {
			m := repairedMasks(t, nw, eps, uint64(0x5A0+nu))
			for _, shards := range []int{1, 2, 4, 8} {
				for _, md := range modes {
					if md.limit >= 0 && shards != 4 {
						continue // modes × one batch cut keeps runtime sane
					}
					name := fmt.Sprintf("nu=%d/eps=%g/shards=%d/%s", nu, eps, shards, md.name)
					t.Run(name, func(t *testing.T) {
						rt := route.NewRouter(nw.G)
						se := route.NewShardedEngine(nw.G, 1)
						if eps > 0 {
							rt.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
							se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
						}
						if md.limit >= 0 {
							se.SetGuideLimit(md.limit)
							if words, _ := se.GuideWords(); (words != nil) != (md.limit > 0) {
								t.Fatalf("guide limit %d: guide built = %v", md.limit, words != nil)
							}
						}
						d := &churnDiff{t: t, rt: rt, se: se, pieces: shards,
							wl: netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 0xC0FFEE+uint64(shards))}
						n := len(nw.Inputs())
						for round := 0; round < 40; round++ {
							d.round(n/2+1, n/4+1)
						}
						if err := se.VerifyState(); err != nil {
							t.Fatal(err)
						}
						if d.accepts == 0 {
							t.Fatal("workload never accepted a circuit; differential is vacuous")
						}
					})
				}
			}
		}
	}
}

// TestShardedRaceStress splits a saturating permutation on the n=64
// network into batches of several sizes and requires, epoch after epoch,
// the sequential router's decisions and a verified state; CI also runs it
// under the race detector.
func TestShardedRaceStress(t *testing.T) {
	nw := buildNet(t, 3)
	n := len(nw.Inputs())
	perm := rng.New(7).Perm(n)
	reqs := make([]route.Request, n)
	for i := range reqs {
		reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
	}
	rt := route.NewRouter(nw.G)
	want := make([]bool, n)
	for _, batch := range []int{n, n / 2, 9} {
		se := route.NewShardedEngine(nw.G, 1)
		var res []route.Result
		for epoch := 0; epoch < 3; epoch++ {
			rt.Reset()
			for i, rq := range reqs {
				_, err := rt.Connect(rq.In, rq.Out)
				want[i] = err == nil
			}
			se.Reset()
			for lo := 0; lo < n; lo += batch {
				hi := min(lo+batch, n)
				res = se.ConnectBatch(reqs[lo:hi], res)
				for i := range res[:hi-lo] {
					if (res[i].Path != nil) != want[lo+i] {
						t.Fatalf("batch=%d epoch=%d req %d: decision mismatch", batch, epoch, lo+i)
					}
				}
			}
			if err := se.VerifyState(); err != nil {
				t.Fatalf("batch=%d epoch=%d: %v", batch, epoch, err)
			}
		}
	}
}

// TestShardedFastPathDominatesLightChurn: under light operational churn
// every accept commits the path of its only probe, nothing falls back,
// and the state stays consistent.
func TestShardedFastPathDominatesLightChurn(t *testing.T) {
	nw := buildNet(t, 3)
	se := route.NewShardedEngine(nw.G, 1)
	wl := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 0xFEED)
	var res []route.Result
	for round := 0; round < 50; round++ {
		reqs := wl.NextConnects(4)
		res = se.ConnectBatch(reqs, res)
		wl.Commit(res[:len(reqs)])
		for _, rel := range wl.NextReleases(4) {
			if err := se.Disconnect(rel.In, rel.Out); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := se.ShardedStats()
	if st.Accepted == 0 || st.FastPath != st.Accepted || st.Fallbacks != 0 {
		t.Errorf("light churn: accepted=%d fast=%d fallbacks=%d, want every accept on the fast path",
			st.Accepted, st.FastPath, st.Fallbacks)
	}
	if err := se.VerifyState(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedServeBatchAllocFree: steady-state batches allocate nothing
// once scratch is warm — the same discipline as the Evaluator trial loop.
func TestShardedServeBatchAllocFree(t *testing.T) {
	nw := buildNet(t, 2)
	se := route.NewShardedEngine(nw.G, 1)
	n := len(nw.Inputs())
	perm := rng.New(3).Perm(n)
	reqs := make([]route.Request, n)
	for i := range reqs {
		reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
	}
	res := make([]route.Result, 0, n)
	work := func() {
		res = se.ConnectBatch(reqs, res)
		for _, r := range res {
			if r.Path != nil {
				if err := se.Disconnect(r.In, r.Out); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		work() // warm the path pool and the result slice
	}
	if avg := testing.AllocsPerRun(50, work); avg != 0 {
		t.Errorf("steady-state ConnectBatch allocated %.1f times per batch", avg)
	}
}

// TestShardedDisconnectErrors covers the bookkeeping edges.
func TestShardedDisconnectErrors(t *testing.T) {
	nw := buildNet(t, 1)
	se := route.NewShardedEngine(nw.G, 1)
	in, out := nw.Inputs()[0], nw.Outputs()[0]
	if err := se.Disconnect(in, out); !errors.Is(err, route.ErrNoCircuit) {
		t.Fatalf("disconnect of a nonexistent circuit: err = %v, want ErrNoCircuit", err)
	}
	res := se.ConnectBatch([]route.Request{{In: in, Out: out}}, nil)
	if res[0].Path == nil {
		t.Fatal("fault-free connect failed")
	}
	if got := se.PathOf(in, out); len(got) == 0 {
		t.Fatal("PathOf lost the committed circuit")
	}
	if se.ActiveCircuits() != 1 {
		t.Fatalf("ActiveCircuits = %d, want 1", se.ActiveCircuits())
	}
	if err := se.Disconnect(in, nw.Outputs()[1]); !errors.Is(err, route.ErrNoCircuit) {
		t.Fatalf("disconnect with wrong output: err = %v, want ErrNoCircuit", err)
	}
	// Busy endpoint: rejected at the endpoint screen, without probing.
	before := se.ShardedStats()
	res = se.ConnectBatch([]route.Request{{In: in, Out: nw.Outputs()[1]}}, res)
	after := se.ShardedStats()
	if res[0].Path != nil || after.EndpointRejects != before.EndpointRejects+1 ||
		after.ProbeRejects != before.ProbeRejects {
		t.Fatalf("busy-endpoint request: got path=%v, endpoint rejects +%d, probe rejects +%d; want reject, +1, +0",
			res[0].Path, after.EndpointRejects-before.EndpointRejects, after.ProbeRejects-before.ProbeRejects)
	}
	if se.PathOf(-1, out) != nil {
		t.Fatal("PathOf(-1) should be nil")
	}
	if err := se.Disconnect(-1, out); err == nil {
		t.Fatal("Disconnect(-1) should error")
	}
	if err := se.Disconnect(in, out); err != nil {
		t.Fatal(err)
	}
	if se.ActiveCircuits() != 0 {
		t.Fatal("circuit survived disconnect")
	}
	if err := se.VerifyState(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSetMasksSharedReleases: adopting new masks drops circuits and
// rebuilds the guide so stale pruning cannot linger.
func TestShardedSetMasksSharedReleases(t *testing.T) {
	nw := buildNet(t, 1)
	se := route.NewShardedEngine(nw.G, 1)
	in, out := nw.Inputs()[0], nw.Outputs()[0]
	if res := se.ConnectBatch([]route.Request{{In: in, Out: out}}, nil); res[0].Path == nil {
		t.Fatal("fault-free connect failed")
	}
	m := repairedMasks(t, nw, 0.02, 99)
	se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	if se.ActiveCircuits() != 0 {
		t.Fatal("SetMasksShared kept circuits")
	}
	// The engine must agree with a sequential router on the new masks.
	rt := route.NewRouter(nw.G)
	rt.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	res := se.ConnectBatch([]route.Request{{In: in, Out: out}}, nil)
	_, err := rt.Connect(in, out)
	if (err == nil) != (res[0].Path != nil) {
		t.Fatalf("post-mask decision mismatch: seq err=%v sharded=%v", err, res[0].Path != nil)
	}
}

// FuzzShardedVsSequential fuzzes fault patterns and batch splits on the
// n=16 network, asserting decision AND path equality between the
// sequential router and the guided engine.
func FuzzShardedVsSequential(f *testing.F) {
	f.Add(uint64(1), uint8(3))
	f.Add(uint64(42), uint8(16))
	f.Add(uint64(0xDEAD), uint8(1))
	nw, err := core.Build(core.Params{Nu: 2, Gamma: 0, M: 8, DQ: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed uint64, batchRaw uint8) {
		m := repairedMasks(t, nw, 0.04, seed)
		rt := route.NewRouter(nw.G)
		rt.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
		se := route.NewShardedEngine(nw.G, 1)
		se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
		wl := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), seed^0x9E3779B97F4A7C15)
		batch := int(batchRaw%16) + 1
		var res []route.Result
		for round := 0; round < 6; round++ {
			reqs := wl.NextConnects(batch)
			res = se.ConnectBatch(reqs, res)
			for i, rq := range reqs {
				path, err := rt.Connect(rq.In, rq.Out)
				if (err == nil) != (res[i].Path != nil) {
					t.Fatalf("round %d req %d: decision mismatch", round, i)
				}
				if err != nil {
					continue
				}
				if len(path) != len(res[i].Path) {
					t.Fatalf("round %d req %d: path lengths differ", round, i)
				}
				for j := range path {
					if path[j] != res[i].Path[j] {
						t.Fatalf("round %d req %d: paths diverge at %d", round, i, j)
					}
				}
			}
			wl.Commit(res[:len(reqs)])
			for _, rel := range wl.NextReleases(batch / 2) {
				rt.Disconnect(rel.In, rel.Out)
				se.Disconnect(rel.In, rel.Out)
			}
		}
		if err := se.VerifyState(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNewShardedEnginePanicsOnNonPositiveShards locks the constructor
// contract: every shard count other than 1 is a caller bug — a stale
// caller still asking for parallelism the engine no longer has, or an
// uninitialized or negated config value — and must fail loudly.
func TestNewShardedEnginePanicsOnNonPositiveShards(t *testing.T) {
	nw := buildNet(t, 1)
	for _, shards := range []int{0, -1, -8, 2, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShardedEngine(g, %d) did not panic", shards)
				}
			}()
			route.NewShardedEngine(nw.G, shards)
		}()
	}
	route.NewShardedEngine(nw.G, 1)
}
