package netsim_test

import (
	"fmt"
	"testing"

	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// repairedEngines builds a (sequential router, masks) reference pair and a
// constructor for engines adopting the same repaired masks, for a fault
// instance drawn at eps.
func repairedMasks(t *testing.T, nw *core.Network, eps float64, seed uint64) core.Masks {
	t.Helper()
	inst := fault.Inject(nw.G, fault.Symmetric(eps), rng.New(seed))
	var m core.Masks
	core.RepairMasksInto(inst, &m)
	m.OutAllowed = nw.G.BuildOutAllowed(m.EdgeOK, m.VertexOK, nil)
	return m
}

// TestChurnDriverMatchesPerOp is the lockstep differential for the
// batch-shaped churn generator: on fault-free and heavily faulted repaired
// networks (the latter forcing endpoint and no-path rejections, i.e. the
// rollback path), ChurnDriver.Run over both engines
// must reproduce the per-op ChurnWith bit for bit — aggregates, per-circuit
// paths, and the generator's final RNG state.
func TestChurnDriverMatchesPerOp(t *testing.T) {
	nw := buildSmall(t)
	for _, eps := range []float64{0, 0.08, 0.25} {
		m := repairedMasks(t, nw, eps, 0xC0FFEE+uint64(eps*1000))

		// Per-op reference.
		ref := route.NewRouter(nw.G)
		ref.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
		const ops = 400
		refR := rng.New(42)
		wantC, wantF, wantP := ChurnWith(ref, nw.G.Inputs(), nw.G.Outputs(), ops, refR, &ChurnScratch{})
		wantState := refR.State()
		wantPaths := pathSnapshot(ref, nw.G)

		engines := map[string]route.Engine{
			"router": func() route.Engine {
				rt := route.NewRouter(nw.G)
				return rt
			}(),
		}
		engines["sharded"] = route.NewShardedEngine(nw.G, 1)
		for name, eng := range engines {
			eng.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
			eng.MasksChanged()
			var cd netsim.ChurnDriver
			r := rng.New(42)
			gotC, gotF, gotP := cd.Run(eng, nw.G.Inputs(), nw.G.Outputs(), ops, r)
			if gotC != wantC || gotF != wantF || gotP != wantP {
				t.Fatalf("eps=%v %s: (connects,failures,pathTotal)=(%d,%d,%d), want (%d,%d,%d)",
					eps, name, gotC, gotF, gotP, wantC, wantF, wantP)
			}
			if r.State() != wantState {
				t.Fatalf("eps=%v %s: final RNG state diverged", eps, name)
			}
			if got := pathSnapshot(eng, nw.G); got != wantPaths {
				t.Fatalf("eps=%v %s: live circuit paths diverged:\n%s\nwant:\n%s", eps, name, got, wantPaths)
			}
		}
		if wantF == 0 && eps >= 0.25 {
			t.Logf("eps=%v produced no failures; rollback path unexercised here", eps)
		}
	}
}

// pathSnapshot renders every live circuit's path via the Engine seam, in
// input order, so two engines' states can be compared exactly.
func pathSnapshot(eng route.Engine, g *graph.Graph) string {
	s := ""
	for _, in := range g.Inputs() {
		for _, out := range g.Outputs() {
			if p := eng.PathOf(in, out); p != nil {
				s += fmt.Sprintf("(%d,%d)=%v;", in, out, p)
			}
		}
	}
	return s
}

// TestChurnDriverRollbackExercised pins down that the heavy-fault case
// actually takes the rollback path (otherwise the differential above
// proves less than it claims).
func TestChurnDriverRollbackExercised(t *testing.T) {
	nw := buildSmall(t)
	m := repairedMasks(t, nw, 0.25, 0xC0FFEE+250)
	ref := route.NewRouter(nw.G)
	ref.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	r := rng.New(42)
	_, failures, _ := ChurnWith(ref, nw.G.Inputs(), nw.G.Outputs(), 400, r, &ChurnScratch{})
	if failures == 0 {
		t.Fatal("heavy-fault stream produced no failed connects; pick a harsher seed/eps")
	}
}

// TestChurnDriverAllocFree: the driver's steady state allocates nothing on
// a warmed-up engine (the Evaluator's 0 allocs/trial gate extends through
// the churn seam).
func TestChurnDriverAllocFree(t *testing.T) {
	nw := buildSmall(t)
	se := route.NewShardedEngine(nw.G, 1)
	var cd netsim.ChurnDriver
	r := rng.New(7)
	run := func() {
		se.Reset()
		cd.Run(se, nw.G.Inputs(), nw.G.Outputs(), 200, r)
	}
	run() // warm up scratch
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Fatalf("churn driver allocated %.1f/run in steady state", allocs)
	}
}

// TestChurnDriverIncrementalMasks runs the full per-epoch lifecycle the
// trial pipeline performs — fault diff, incremental mask update, engine
// notification, batch-shaped churn — with the sharded engine kept current
// through MasksChangedDiff only, never a full MasksChanged. Against a
// sequential router over the same evolving shared masks, every round's
// aggregates, live-circuit paths, and final RNG state must stay
// bit-identical: the incremental guide seam cannot move a single churn
// decision.
func TestChurnDriverIncrementalMasks(t *testing.T) {
	nw := buildSmall(t)
	g := nw.G
	inst := fault.NewInstance(g)
	mu := core.NewMaskUpdater(g)
	var m core.Masks
	mu.Init(inst, &m)

	ref := route.NewRouter(g)
	ref.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	se := route.NewShardedEngine(g, 1)
	se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)

	bi := fault.NewBatchInjector(g)
	const rounds = 10
	bi.FillStream(fault.Symmetric(0.05), 0x10C5, 0, rounds)
	var cdRef, cdSe netsim.ChurnDriver
	for round := 0; round < rounds; round++ {
		diff := bi.ApplyNext(inst)
		edges := mu.Apply(inst, &m, diff)
		ref.MasksChanged()
		se.MasksChangedDiff(mu.ChangedVertices(), edges)

		refR := rng.New(uint64(round) + 9)
		r := rng.New(uint64(round) + 9)
		wantC, wantF, wantP := cdRef.Run(ref, g.Inputs(), g.Outputs(), 200, refR)
		gotC, gotF, gotP := cdSe.Run(se, g.Inputs(), g.Outputs(), 200, r)
		if gotC != wantC || gotF != wantF || gotP != wantP {
			t.Fatalf("round %d: (connects,failures,pathTotal)=(%d,%d,%d), want (%d,%d,%d)",
				round, gotC, gotF, gotP, wantC, wantF, wantP)
		}
		if r.State() != refR.State() {
			t.Fatalf("round %d: final RNG state diverged", round)
		}
		if got, want := pathSnapshot(se, g), pathSnapshot(ref, g); got != want {
			t.Fatalf("round %d: live circuit paths diverged:\n%s\nwant:\n%s", round, got, want)
		}
		ref.Reset()
		se.Reset()
	}
}

// TestChurnDriverUnequalTerminalSets: with fewer outputs than inputs the
// output pool can drain while inputs remain idle; the run must end cleanly
// (matching the per-op generator's release branch) instead of drawing
// Intn(0).
func TestChurnDriverUnequalTerminalSets(t *testing.T) {
	nw := buildSmall(t)
	ins := nw.G.Inputs()
	outs := nw.G.Outputs()[:2]
	ref := route.NewRouter(nw.G)
	refR := rng.New(5)
	wantC, wantF, wantP := ChurnWith(ref, ins, outs, 300, refR, &ChurnScratch{})

	eng := route.NewRouter(nw.G)
	var cd netsim.ChurnDriver
	r := rng.New(5)
	gotC, gotF, gotP := cd.Run(eng, ins, outs, 300, r)
	if gotC != wantC || gotF != wantF || gotP != wantP || r.State() != refR.State() {
		t.Fatalf("unequal sets diverged: got (%d,%d,%d) want (%d,%d,%d)", gotC, gotF, gotP, wantC, wantF, wantP)
	}
}

type churnCircuit struct{ in, out int32 }

// ChurnScratch holds the request-generator state ChurnWith reuses across
// runs: the live-circuit list and the idle terminal pools.
type ChurnScratch struct {
	live    []churnCircuit
	idleIn  []int32
	idleOut []int32
}

// ChurnWith is the per-op churn reference the differential tests replay
// ChurnDriver against. It drives a router with ops random operations: with
// probability 1/2 (or always, when no circuit exists; never, when all
// terminals are busy) it connects a uniformly chosen idle input to a
// uniformly chosen idle output, otherwise it disconnects a uniformly
// chosen existing circuit, returning attempted connects, failed connects,
// and the summed path length of successes.
func ChurnWith(rt *route.Router, inputs, outputs []int32, ops int, r *rng.RNG, sc *ChurnScratch) (connects, failures, pathTotal int) {
	sc.live = sc.live[:0]
	sc.idleIn = append(sc.idleIn[:0], inputs...)
	sc.idleOut = append(sc.idleOut[:0], outputs...)
	for op := 0; op < ops; op++ {
		doConnect := len(sc.live) == 0 || (len(sc.idleIn) > 0 && r.Bernoulli(0.5))
		if doConnect && len(sc.idleIn) > 0 && len(sc.idleOut) > 0 {
			ii := r.Intn(len(sc.idleIn))
			oo := r.Intn(len(sc.idleOut))
			in, outT := sc.idleIn[ii], sc.idleOut[oo]
			connects++
			path, err := rt.Connect(in, outT)
			if err != nil {
				failures++
				continue
			}
			pathTotal += len(path) - 1
			sc.idleIn[ii] = sc.idleIn[len(sc.idleIn)-1]
			sc.idleIn = sc.idleIn[:len(sc.idleIn)-1]
			sc.idleOut[oo] = sc.idleOut[len(sc.idleOut)-1]
			sc.idleOut = sc.idleOut[:len(sc.idleOut)-1]
			sc.live = append(sc.live, churnCircuit{in, outT})
		} else if len(sc.live) > 0 {
			ci := r.Intn(len(sc.live))
			c := sc.live[ci]
			if err := rt.Disconnect(c.in, c.out); err == nil {
				sc.idleIn = append(sc.idleIn, c.in)
				sc.idleOut = append(sc.idleOut, c.out)
			}
			sc.live[ci] = sc.live[len(sc.live)-1]
			sc.live = sc.live[:len(sc.live)-1]
		}
	}
	return connects, failures, pathTotal
}
