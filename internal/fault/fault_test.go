package fault

import (
	"math"
	"testing"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// line builds in -> a -> b -> out (3 switches in series).
func line() *graph.Graph {
	b := graph.NewBuilder(4, 3)
	in := b.AddVertex(0)
	va := b.AddVertex(1)
	vb := b.AddVertex(2)
	out := b.AddVertex(3)
	b.AddEdge(in, va)
	b.AddEdge(va, vb)
	b.AddEdge(vb, out)
	b.MarkInput(in)
	b.MarkOutput(out)
	return b.Freeze()
}

// twoInputs builds in0 -> m <- in1 plus m -> out: two inputs sharing a link.
func twoInputs() *graph.Graph {
	b := graph.NewBuilder(4, 3)
	in0 := b.AddVertex(0)
	in1 := b.AddVertex(0)
	m := b.AddVertex(1)
	out := b.AddVertex(2)
	b.AddEdge(in0, m)
	b.AddEdge(in1, m)
	b.AddEdge(m, out)
	b.MarkInput(in0)
	b.MarkInput(in1)
	b.MarkOutput(out)
	return b.Freeze()
}

func TestModelValidate(t *testing.T) {
	for _, m := range []Model{Symmetric(0), Symmetric(0.1), Symmetric(0.5), {OpenProb: 1}, {ClosedProb: 1}} {
		if err := m.Validate(); err != nil {
			t.Errorf("%+v: %v", m, err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		why string
		m   Model
	}{
		{"ε₁+ε₂ > 1", Model{OpenProb: 0.7, ClosedProb: 0.7}},
		{"symmetric ε > 1/2", Symmetric(0.6)},
		{"negative ε₁", Model{OpenProb: -0.1}},
		{"negative ε₂", Model{ClosedProb: -0.1}},
		{"NaN ε", Symmetric(nan)},
		{"NaN ε₁", Model{OpenProb: nan}},
		{"NaN ε₂", Model{ClosedProb: nan}},
		{"+Inf ε", Symmetric(inf)},
		{"-Inf ε", Symmetric(-inf)},
		{"+Inf ε₁ against -Inf ε₂", Model{OpenProb: inf, ClosedProb: -inf}},
	} {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("accepted %s: %+v", tc.why, tc.m)
		}
	}
}

func TestInjectZeroEps(t *testing.T) {
	g := line()
	inst := Inject(g, Symmetric(0), rng.New(1))
	if inst.NumFailed() != 0 {
		t.Fatalf("failures with ε=0: %d", inst.NumFailed())
	}
	if !inst.SurvivesBasicChecks() {
		t.Fatal("fault-free network failed basic checks")
	}
}

func TestInjectAllOpen(t *testing.T) {
	g := line()
	inst := Inject(g, Model{OpenProb: 1}, rng.New(1))
	if inst.NumOpen() != 3 || inst.NumClosed() != 0 {
		t.Fatalf("open=%d closed=%d", inst.NumOpen(), inst.NumClosed())
	}
	if in, out := inst.IsolatedPair(); in < 0 || out < 0 {
		t.Fatal("fully open network not isolated")
	}
}

func TestInjectRateMatchesEps(t *testing.T) {
	// Big graph, check empirical failure rates for both regimes of Reinject.
	b := graph.NewBuilder(2, 20000)
	u := b.AddVertex(graph.NoStage)
	v := b.AddVertex(graph.NoStage)
	for i := 0; i < 20000; i++ {
		b.AddEdge(u, v)
	}
	g := b.Freeze()
	for _, eps := range []float64{0.01, 0.3} {
		inst := Inject(g, Symmetric(eps), rng.New(7))
		wantEach := eps * 20000
		tol := 5 * math.Sqrt(wantEach)
		if math.Abs(float64(inst.NumOpen())-wantEach) > tol {
			t.Errorf("ε=%v: opens = %d, want ~%.0f", eps, inst.NumOpen(), wantEach)
		}
		if math.Abs(float64(inst.NumClosed())-wantEach) > tol {
			t.Errorf("ε=%v: closes = %d, want ~%.0f", eps, inst.NumClosed(), wantEach)
		}
	}
}

func TestInjectDeterministic(t *testing.T) {
	g := line()
	a := Inject(g, Symmetric(0.3), rng.New(99))
	b := Inject(g, Symmetric(0.3), rng.New(99))
	for e := range a.Edge {
		if a.Edge[e] != b.Edge[e] {
			t.Fatal("same seed produced different instances")
		}
	}
}

func TestSetState(t *testing.T) {
	inst := NewInstance(line())
	inst.SetState(0, Open)
	inst.SetState(1, Closed)
	if inst.NumOpen() != 1 || inst.NumClosed() != 1 {
		t.Fatalf("counts open=%d closed=%d", inst.NumOpen(), inst.NumClosed())
	}
	inst.SetState(0, Closed)
	if inst.NumOpen() != 0 || inst.NumClosed() != 2 {
		t.Fatalf("after flip: open=%d closed=%d", inst.NumOpen(), inst.NumClosed())
	}
	inst.SetState(0, Normal)
	inst.SetState(1, Normal)
	if inst.NumFailed() != 0 {
		t.Fatal("counts not restored")
	}
}

func TestFaultyVertices(t *testing.T) {
	g := line()
	inst := NewInstance(g)
	inst.SetState(1, Open) // a -> b fails
	f := inst.FaultyVerticesInto(nil)
	want := []bool{false, true, true, false}
	for i, w := range want {
		if f[i] != w {
			t.Fatalf("faulty[%d] = %v, want %v", i, f[i], w)
		}
	}
}

func TestRepairSparesTerminals(t *testing.T) {
	g := line()
	inst := NewInstance(g)
	inst.SetState(0, Open) // in -> a fails: a discarded, in spared
	usable := inst.Repair()
	if !usable[0] {
		t.Fatal("terminal discarded by repair")
	}
	if usable[1] {
		t.Fatal("faulty internal vertex not discarded")
	}
	if !usable[2] || !usable[3] {
		t.Fatal("healthy vertices discarded")
	}
	if inst.RepairedEdgeUsable(usable, 0) {
		t.Fatal("failed switch usable after repair")
	}
	if !inst.RepairedEdgeUsable(usable, 2) {
		t.Fatal("healthy switch b->out not usable")
	}
	// Edge 1 (a->b) is normal but endpoint a is discarded.
	if inst.RepairedEdgeUsable(usable, 1) {
		t.Fatal("switch with discarded endpoint usable")
	}
}

func TestShortedTerminals(t *testing.T) {
	g := twoInputs()
	inst := NewInstance(g)
	// Close both input switches: in0 and in1 contract through m.
	inst.SetState(0, Closed)
	inst.SetState(1, Closed)
	a, b := inst.ShortedTerminals()
	if a < 0 || b < 0 {
		t.Fatal("shorted inputs not detected")
	}
	if !inst.G.IsTerminal(a) || !inst.G.IsTerminal(b) {
		t.Fatal("non-terminals reported")
	}
}

func TestShortedTerminalsNegative(t *testing.T) {
	g := twoInputs()
	inst := NewInstance(g)
	inst.SetState(0, Closed) // only one closed switch: in0~m, no terminal pair
	if a, _ := inst.ShortedTerminals(); a >= 0 {
		t.Fatal("false positive shorting")
	}
}

func TestIsolatedPair(t *testing.T) {
	g := line()
	inst := NewInstance(g)
	inst.SetState(1, Open)
	in, out := inst.IsolatedPair()
	if in != 0 || out != 3 {
		t.Fatalf("isolated pair = (%d,%d), want (0,3)", in, out)
	}
}

func TestClosedEdgesConduct(t *testing.T) {
	// A closed switch still conducts: closing (not opening) edges on the
	// line must keep input and output connected.
	g := line()
	inst := NewInstance(g)
	inst.SetState(0, Closed)
	inst.SetState(1, Closed)
	if in, _ := inst.IsolatedPair(); in >= 0 {
		t.Fatal("closed switches broke connectivity")
	}
}

func TestClosedEdgesConductBackwards(t *testing.T) {
	// Contraction is undirected: with b<-a closed, a path in0 -> m ... can
	// route through the merged node even against edge direction.
	b := graph.NewBuilder(5, 4)
	in := b.AddVertex(0)
	x := b.AddVertex(1)
	y := b.AddVertex(1)
	out := b.AddVertex(2)
	b.AddEdge(in, x)
	b.AddEdge(y, x) // directed y->x; closing it merges x,y
	b.AddEdge(y, out)
	b.MarkInput(in)
	b.MarkOutput(out)
	g := b.Freeze()
	inst := NewInstance(g)
	// Without the closure, out is unreachable from in (y->x wrong way).
	if i, _ := inst.IsolatedPair(); i < 0 {
		t.Fatal("test graph should be disconnected when healthy")
	}
	inst.SetState(1, Closed)
	if i, _ := inst.IsolatedPair(); i >= 0 {
		t.Fatal("closed switch did not merge endpoints bidirectionally")
	}
}

func TestSurvivesBasicChecks(t *testing.T) {
	g := twoInputs()
	inst := NewInstance(g)
	if !inst.SurvivesBasicChecks() {
		t.Fatal("healthy network fails")
	}
	inst.SetState(0, Open)
	if inst.SurvivesBasicChecks() {
		t.Fatal("isolated input not caught")
	}
	inst.SetState(0, Closed)
	inst.SetState(1, Closed)
	if inst.SurvivesBasicChecks() {
		t.Fatal("shorted inputs not caught")
	}
}

func TestReinjectReuse(t *testing.T) {
	g := line()
	inst := Inject(g, Model{OpenProb: 1}, rng.New(3))
	if inst.NumOpen() != 3 {
		t.Fatal("setup failed")
	}
	inst.Reinject(Symmetric(0), rng.New(4))
	if inst.NumFailed() != 0 {
		t.Fatal("Reinject did not clear previous states")
	}
	for _, s := range inst.Edge {
		if s != Normal {
			t.Fatal("stale edge state after Reinject")
		}
	}
}

func TestAsymmetricModelOpenOnly(t *testing.T) {
	// Open-only failures can isolate but never short.
	g := twoInputs()
	inst := Inject(g, Model{OpenProb: 0.9}, rng.New(21))
	if inst.NumClosed() != 0 {
		t.Fatal("closed failures under open-only model")
	}
	if a, _ := inst.ShortedTerminals(); a >= 0 {
		t.Fatal("shorting without closed failures")
	}
}

func TestAsymmetricModelClosedOnly(t *testing.T) {
	// Closed-only failures can short but never isolate (closed switches
	// conduct).
	g := line()
	for seed := uint64(0); seed < 20; seed++ {
		inst := Inject(g, Model{ClosedProb: 0.5}, rng.New(seed))
		if inst.NumOpen() != 0 {
			t.Fatal("open failures under closed-only model")
		}
		if in, _ := inst.IsolatedPair(); in >= 0 {
			t.Fatal("isolation without open failures")
		}
	}
}

func TestAsymmetricRates(t *testing.T) {
	b := graph.NewBuilder(2, 10000)
	u := b.AddVertex(graph.NoStage)
	v := b.AddVertex(graph.NoStage)
	for i := 0; i < 10000; i++ {
		b.AddEdge(u, v)
	}
	g := b.Freeze()
	inst := Inject(g, Model{OpenProb: 0.02, ClosedProb: 0.08}, rng.New(33))
	openRate := float64(inst.NumOpen()) / 10000
	closedRate := float64(inst.NumClosed()) / 10000
	if math.Abs(openRate-0.02) > 0.01 || math.Abs(closedRate-0.08) > 0.015 {
		t.Fatalf("rates open=%v closed=%v", openRate, closedRate)
	}
}

func TestStateString(t *testing.T) {
	if Normal.String() != "normal" || Open.String() != "open" || Closed.String() != "closed" {
		t.Fatal("State.String wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state string empty")
	}
}
