package ftcsn

import (
	"testing"

	"ftcsn/internal/maxflow"
)

// TestEndToEnd exercises the full public API surface the way README's
// quickstart does: build, fault, repair, route.
func TestEndToEnd(t *testing.T) {
	nw, err := Build(DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Inputs()) != 16 || len(nw.Outputs()) != 16 {
		t.Fatalf("terminals: %d/%d", len(nw.Inputs()), len(nw.Outputs()))
	}

	inst := Inject(nw.G, Symmetric(0.001), 42)
	rt := NewRepairedRouter(inst)
	ok := 0
	for i, in := range nw.Inputs() {
		if _, err := rt.Connect(in, nw.Outputs()[(i+5)%16]); err == nil {
			ok++
		}
	}
	if ok < 15 {
		t.Fatalf("only %d/16 circuits established at ε=0.001", ok)
	}
	if err := rt.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatePipeline(t *testing.T) {
	nw, err := Build(DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	out := nw.Evaluate(Symmetric(0), 1, 100)
	if !out.Success {
		t.Fatalf("fault-free pipeline failed: %+v", out)
	}
}

func TestBenesFacade(t *testing.T) {
	bn, err := NewBenes(3)
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{7, 6, 5, 4, 3, 2, 1, 0}
	paths, err := bn.RoutePermutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := bn.VerifyRouting(perm, paths); err != nil {
		t.Fatal(err)
	}
}

func TestSuperconcentratorFacade(t *testing.T) {
	sc, err := NewSuperconcentrator(16, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	flow := maxflow.VertexDisjointPaths(sc.G, sc.G.Inputs(), sc.G.Outputs())
	if flow != 16 {
		t.Fatalf("saturation flow = %d", flow)
	}
}

// TestTopologyZooFacade exercises the Levels/WrapGraph surface: build a
// permuted-sweep HyperX and a circulant, wrap them, and run the full
// Theorem-2 trial pipeline on each.
func TestTopologyZooFacade(t *testing.T) {
	hx, err := NewHyperX([]int{3, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCirculant(8, []int{1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"hyperx": hx.G, "circulant": cc.G} {
		lv, err := g.Levels()
		if err != nil {
			t.Fatalf("%s: levels: %v", name, err)
		}
		if lv.Sorted() {
			t.Fatalf("%s: expected a permuted-sweep family (IDs not level-sorted)", name)
		}
		nw, err := WrapGraph(g)
		if err != nil {
			t.Fatalf("%s: wrap: %v", name, err)
		}
		out := nw.Evaluate(Symmetric(0), 1, 50)
		if !out.MajorityAccess {
			t.Fatalf("%s: fault-free majority access failed: %+v", name, out)
		}
	}
}

func TestAccountingFacade(t *testing.T) {
	p := DefaultParams(3)
	a := Accounting(p)
	if a.Edges <= 0 || a.Depth != 12 {
		t.Fatalf("accounting: %+v", a)
	}
	pa := PaperAccounting(2)
	if pa.N != 16 {
		t.Fatalf("paper accounting: %+v", pa)
	}
	if LowerBoundSize(1<<20) <= 0 || LowerBoundDepth(1<<20) <= 0 {
		t.Fatal("lower bounds non-positive")
	}
}

func TestClosFacade(t *testing.T) {
	c, err := NewClos(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsStrictSenseNonblocking() {
		t.Fatal("NewClos not strict")
	}
	rc, err := NewRecursiveClos(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rc.N != 8 || rc.Depth() != 5 {
		t.Fatalf("recursive clos N=%d depth=%d", rc.N, rc.Depth())
	}
	// Both must be fully rearrangeable (flow saturation).
	if flow := maxflow.VertexDisjointPaths(c.G, c.G.Inputs(), c.G.Outputs()); flow != c.N {
		t.Fatalf("clos saturation = %d", flow)
	}
	if flow := maxflow.VertexDisjointPaths(rc.G, rc.G.Inputs(), rc.G.Outputs()); flow != rc.N {
		t.Fatalf("recursive saturation = %d", flow)
	}
}

func TestHierarchyContainment(t *testing.T) {
	// The paper's observation: a nonblocking network is rearrangeable, and
	// a rearrangeable network is a superconcentrator. Operationally: 𝒩
	// must pass the superconcentrator flow test for sampled r.
	nw, err := Build(DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 4; r++ {
		ins := nw.Inputs()[:r]
		outs := nw.Outputs()[4-r:]
		if flow := maxflow.VertexDisjointPaths(nw.G, ins, outs); flow != r {
			t.Fatalf("r=%d: flow %d", r, flow)
		}
	}
}

func TestEngineSeamFacade(t *testing.T) {
	nw, err := Build(DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	n := len(nw.Inputs())
	reqs := make([]RouteRequest, n)
	for i := range reqs {
		reqs[i] = RouteRequest{In: nw.Inputs()[i], Out: nw.Outputs()[(i+1)%n]}
	}
	engines := []Engine{NewRouter(nw.G), NewShardedEngine(nw.G)}
	for ei, eng := range engines {
		res := eng.ConnectBatch(reqs, nil)
		st := eng.Stats()
		if st.Requests != int64(n) || st.Accepted == 0 {
			t.Fatalf("engine %d: stats %+v", ei, st)
		}
		for i := range res {
			if res[i].Path != nil {
				if err := eng.Disconnect(reqs[i].In, reqs[i].Out); err != nil {
					t.Fatalf("engine %d: %v", ei, err)
				}
			}
		}
	}
}

// TestOpenLoopFacade runs an end-to-end open-loop serving session purely
// through the public API: composed traffic source, repaired engine,
// virtual-clock Serve, SLO snapshot — and checks the whole run is
// reproducible from its seed.
func TestOpenLoopFacade(t *testing.T) {
	nw, err := Build(DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	inst := Inject(nw.G, Symmetric(0.002), 11)
	run := func() SLOSnapshot {
		eng := NewRepairedShardedEngine(inst)
		src := NewTrafficSource(0xFACADE,
			NewMMPP(1.0, 12.0, 40.0, 5.0),
			NewLognormalHolding(1.0, 0.7),
			NewHotspotPattern(nw.Inputs(), nw.Outputs(), 3, 0.6))
		var slo SLO
		if err := Serve(eng, src, ServeConfig{MaxArrivals: 1500}, &slo); err != nil {
			t.Fatal(err)
		}
		return slo.Snapshot()
	}
	sn := run()
	if sn.Offered != 1500 || sn.Accepted+sn.Rejected != sn.Offered {
		t.Fatalf("arrival accounting broken: %+v", sn)
	}
	if sn.Accepted == 0 || sn.PeakLive == 0 || sn.OfferedLoad <= 0 {
		t.Fatalf("degenerate serving run: %+v", sn)
	}
	if sn.Departed != sn.Accepted || sn.Live != 0 {
		t.Fatalf("unbounded-horizon run should drain: %+v", sn)
	}
	if again := run(); again != sn {
		t.Fatalf("open-loop run not reproducible:\n%+v\n%+v", sn, again)
	}
}
