package route_test

// Conformance tests for the route.Engine seam: both engines must serve
// the same workload through ConnectBatch / Disconnect / PathOf / Reset /
// Stats coherently, and must agree bit for bit.

import (
	"errors"
	"runtime"
	"testing"

	"ftcsn/internal/netsim/netsimtest"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

func permReqs(t *testing.T, nu int) ([]route.Request, *route.Router, []route.Engine) {
	t.Helper()
	nw := buildNet(t, nu)
	n := len(nw.Inputs())
	perm := rng.New(11).Perm(n)
	reqs := make([]route.Request, n)
	for i := range reqs {
		reqs[i] = route.Request{In: nw.Inputs()[i], Out: nw.Outputs()[perm[i]]}
	}
	rt := route.NewRouter(nw.G)
	return reqs, rt, []route.Engine{rt, route.NewShardedEngine(nw.G, 1)}
}

// TestEngineSeamConformance runs a connect/disconnect/reconnect workload
// through every engine and checks the seam's bookkeeping: PathOf mirrors
// live circuits, Disconnect frees exactly what reconnects, Reset empties,
// and Stats add up.
func TestEngineSeamConformance(t *testing.T) {
	reqs, _, engines := permReqs(t, 2)
	for ei, eng := range engines {
		// An empty batch is still a ConnectBatch call.
		if empty := eng.ConnectBatch(nil, nil); len(empty) != 0 {
			t.Fatalf("engine %d: %d results for an empty batch", ei, len(empty))
		}
		if st := eng.Stats(); st != (route.EngineStats{Batches: 1}) {
			t.Fatalf("engine %d stats %+v after one empty batch", ei, st)
		}
		var res []route.Result
		res = eng.ConnectBatch(reqs, res)
		accepted := 0
		for i := range res {
			if res[i].Path == nil {
				continue
			}
			accepted++
			p := eng.PathOf(reqs[i].In, reqs[i].Out)
			if len(p) == 0 || p[0] != reqs[i].In || p[len(p)-1] != reqs[i].Out {
				t.Fatalf("engine %d: PathOf(%d,%d) = %v", ei, reqs[i].In, reqs[i].Out, p)
			}
		}
		if accepted == 0 {
			t.Fatalf("engine %d accepted nothing", ei)
		}
		st := eng.Stats()
		if st.Batches != 2 || st.Requests != int64(len(reqs)) ||
			st.Accepted != int64(accepted) || st.Rejected != int64(len(reqs)-accepted) {
			t.Fatalf("engine %d stats %+v after an empty batch and one of %d (%d accepted)", ei, st, len(reqs), accepted)
		}

		// Disconnect half, reconnect the same circuits: must succeed again.
		for i := 0; i < len(res); i += 2 {
			if res[i].Path == nil {
				continue
			}
			if err := eng.Disconnect(reqs[i].In, reqs[i].Out); err != nil {
				t.Fatalf("engine %d: disconnect: %v", ei, err)
			}
			if eng.PathOf(reqs[i].In, reqs[i].Out) != nil {
				t.Fatalf("engine %d: path survives disconnect", ei)
			}
			if err := eng.Disconnect(reqs[i].In, reqs[i].Out); err == nil {
				t.Fatalf("engine %d: double disconnect succeeded", ei)
			}
			single := eng.ConnectBatch(reqs[i:i+1], nil)
			if single[0].Path == nil {
				t.Fatalf("engine %d: reconnect of freed circuit rejected", ei)
			}
		}
		eng.Reset()
		for i := range reqs {
			if eng.PathOf(reqs[i].In, reqs[i].Out) != nil {
				t.Fatalf("engine %d: circuit survives Reset", ei)
			}
		}
		// After Reset the whole permutation must route again.
		res = eng.ConnectBatch(reqs, res)
		got := 0
		for i := range res {
			if res[i].Path != nil {
				got++
			}
		}
		if got == 0 {
			t.Fatalf("engine %d: nothing reconnects after Reset", ei)
		}
	}
}

// TestSequentialEnginesAgree: Router and ShardedEngine ConnectBatch give
// bit-identical decisions and paths (the Engine-seam restatement of the
// sharded differential).
func TestSequentialEnginesAgree(t *testing.T) {
	reqs, _, _ := permReqs(t, 2)
	nw := buildNet(t, 2)
	engA := route.NewRouter(nw.G)
	engB := route.NewShardedEngine(nw.G, 1)
	var resA, resB []route.Result
	for round := 0; round < 5; round++ {
		resA = engA.ConnectBatch(reqs, resA)
		resB = engB.ConnectBatch(reqs, resB)
		for i := range reqs {
			pa, pb := resA[i].Path, resB[i].Path
			if (pa == nil) != (pb == nil) {
				t.Fatalf("round %d req %d: decisions differ", round, i)
			}
			for j := range pa {
				if pa[j] != pb[j] {
					t.Fatalf("round %d req %d: paths differ: %v vs %v", round, i, pa, pb)
				}
			}
		}
		engA.Reset()
		engB.Reset()
	}
}

// TestEnginesRefuseNonTerminalEndpoints: both engines refuse a request
// whose In is not an input terminal or whose Out is not an output
// terminal, IDs outside the network included, before any other screening.
// The Router reports ErrNotTerminal; the guided engine counts an endpoint
// reject without probing. A valid request still routes afterwards.
func TestEnginesRefuseNonTerminalEndpoints(t *testing.T) {
	nw := buildNet(t, 1)
	g := nw.G
	ins, outs := g.Inputs(), g.Outputs()
	interior := int32(-1)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if !g.IsTerminal(v) && g.OutDegree(v) > 0 {
			interior = v
			break
		}
	}
	if interior < 0 {
		t.Fatal("network has no interior vertex")
	}
	n := int32(g.NumVertices())
	cases := []struct {
		name string
		rq   route.Request
	}{
		{"interior-in", route.Request{In: interior, Out: outs[0]}},
		{"output-as-in", route.Request{In: outs[1], Out: outs[0]}},
		{"input-as-out", route.Request{In: ins[0], Out: ins[1]}},
		{"in=-1", route.Request{In: -1, Out: outs[0]}},
		{"out=-1", route.Request{In: ins[0], Out: -1}},
		{"in=NumVertices", route.Request{In: n, Out: outs[0]}},
		{"out=NumVertices", route.Request{In: ins[0], Out: n}},
	}
	for _, tc := range cases {
		rq := tc.rq
		t.Run(tc.name, func(t *testing.T) {
			rt := route.NewRouter(g)
			if _, err := rt.Connect(rq.In, rq.Out); !errors.Is(err, route.ErrNotTerminal) {
				t.Fatalf("Router.Connect: err %v, want ErrNotTerminal", err)
			}
			se := route.NewShardedEngine(g, 1)
			for _, eng := range []route.Engine{route.NewRouter(g), se} {
				res := eng.ConnectBatch([]route.Request{rq, {In: ins[0], Out: outs[0]}}, nil)
				if res[0].Path != nil {
					t.Fatalf("%T established %v", eng, res[0].Path)
				}
				if res[1].Path == nil {
					t.Fatalf("%T: valid request after the refused one was rejected", eng)
				}
			}
			if st := se.ShardedStats(); st.EndpointRejects != 1 || st.ProbeRejects != 0 {
				t.Fatalf("engine counted %+v, want one endpoint reject", st)
			}
			if err := se.VerifyState(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSteadyChurnAllocatesNothing: once warm, churn allocates no bytes on
// either engine, also while fresh (in, out) pairs keep arriving: both keep
// their circuits in the per-input registry, which never grows past the
// peak live count, and recycle retired paths. Bytes are read from
// runtime.MemStats because testing.AllocsPerRun divides by its run count
// and truncates, so a rare amortized growth (a map of circuit keys that
// grows as distinct pairs churn through it) reads 0 allocs per run.
func TestSteadyChurnAllocatesNothing(t *testing.T) {
	nw := buildNet(t, 3)
	n := len(nw.Inputs())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, eng := range []route.Engine{route.NewRouter(nw.G), route.NewShardedEngine(nw.G, 1)} {
		wl := netsimtest.NewWorkload(nw.Inputs(), nw.Outputs(), 0xA110C)
		var res []route.Result
		// A round connects up to half the terminals on top of the live
		// half, then releases as many circuits as it requested.
		round := func() {
			reqs := wl.NextConnects(n / 2)
			res = eng.ConnectBatch(reqs, res)
			wl.Commit(res[:len(reqs)])
			for _, rel := range wl.NextReleases(len(reqs)) {
				if err := eng.Disconnect(rel.In, rel.Out); err != nil {
					t.Fatal(err)
				}
			}
		}
		for wl.Live() < n/2 {
			reqs := wl.NextConnects(n/2 - wl.Live())
			res = eng.ConnectBatch(reqs, res)
			wl.Commit(res[:len(reqs)])
		}
		for i := 0; i < 8; i++ {
			round() // grow every buffer to its peak
		}
		const rounds = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b != 0 {
			t.Errorf("%T: %d warm churn rounds allocated %d bytes, want 0", eng, rounds, b)
		}
	}
}
