package route

import (
	"errors"
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// crossbar builds a 2-input 2-output network with a full middle stage:
// in_i -> m_{i,j} -> out_j for all i,j (4 middle vertices), which is
// strictly nonblocking.
func crossbar() *graph.Graph {
	b := graph.NewBuilder(8)
	in0 := b.AddVertex()
	in1 := b.AddVertex()
	var mids [2][2]int32
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			mids[i][j] = b.AddVertex()
		}
	}
	out0 := b.AddVertex()
	out1 := b.AddVertex()
	ins := []int32{in0, in1}
	outs := []int32{out0, out1}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			b.AddEdge(ins[i], mids[i][j])
			b.AddEdge(mids[i][j], outs[j])
		}
	}
	b.MarkInput(in0)
	b.MarkInput(in1)
	b.MarkOutput(out0)
	b.MarkOutput(out1)
	return b.Freeze()
}

// crossbar2 is like crossbar but with TWO parallel middle vertices per
// (input, output) pair, so any single internal vertex loss leaves an
// alternate route.
func crossbar2() *graph.Graph {
	b := graph.NewBuilder(16)
	ins := []int32{b.AddVertex(), b.AddVertex()}
	outs := make([]int32, 0, 2)
	var mids [2][2][2]int32
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				mids[i][j][k] = b.AddVertex()
			}
		}
	}
	outs = append(outs, b.AddVertex(), b.AddVertex())
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				b.AddEdge(ins[i], mids[i][j][k])
				b.AddEdge(mids[i][j][k], outs[j])
			}
		}
	}
	b.MarkInput(ins[0])
	b.MarkInput(ins[1])
	b.MarkOutput(outs[0])
	b.MarkOutput(outs[1])
	return b.Freeze()
}

func TestConnectDisconnect(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	path, err := rt.Connect(g.Inputs()[0], g.Outputs()[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != g.Inputs()[0] || path[2] != g.Outputs()[1] {
		t.Fatalf("path = %v", path)
	}
	if rt.ActiveCircuits() != 1 {
		t.Fatal("circuit not registered")
	}
	if err := rt.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Disconnect(g.Inputs()[0], g.Outputs()[1]); err != nil {
		t.Fatal(err)
	}
	if rt.ActiveCircuits() != 0 || rt.Busy(path[1]) {
		t.Fatal("disconnect did not release")
	}
}

func TestConnectBusyTerminal(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	if _, err := rt.Connect(g.Inputs()[0], g.Outputs()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Connect(g.Inputs()[0], g.Outputs()[1]); !errors.Is(err, ErrBusyTerminal) {
		t.Fatalf("err = %v, want ErrBusyTerminal", err)
	}
	// A repeat of the live circuit is refused by its busy endpoints.
	if _, err := rt.Connect(g.Inputs()[0], g.Outputs()[0]); !errors.Is(err, ErrBusyTerminal) {
		t.Fatalf("same pair: err = %v, want ErrBusyTerminal", err)
	}
}

func TestCrossbarNonblocking(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	if _, err := rt.Connect(g.Inputs()[0], g.Outputs()[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Connect(g.Inputs()[1], g.Outputs()[1]); err != nil {
		t.Fatalf("second circuit blocked on crossbar: %v", err)
	}
	if err := rt.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoPathThroughForeignTerminal(t *testing.T) {
	// in0 -> out0 -> ... is illegal: circuits may not pass through another
	// terminal. Build in0 -> out0 and in0 -> x -> out1; connecting
	// in0->out1 must go via x even if out0 offers a "shortcut".
	b := graph.NewBuilder(4)
	in0 := b.AddVertex()
	out0 := b.AddVertex()
	x := b.AddVertex()
	out1 := b.AddVertex()
	b.AddEdge(in0, out0)
	b.AddEdge(in0, x)
	b.AddEdge(x, out1)
	b.AddEdge(out0, out1) // pathological switch out of an "output"
	b.MarkInput(in0)
	b.MarkOutput(out1)
	// NOTE: out0 is deliberately NOT marked as a terminal here... but to
	// exercise the terminal-avoidance rule we mark it:
	b.MarkOutput(out0)
	g := b.Freeze()
	rt := NewRouter(g)
	path, err := rt.Connect(in0, out1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range path[1 : len(path)-1] {
		if g.IsTerminal(v) {
			t.Fatalf("path %v passes through terminal %d", path, v)
		}
	}
}

func TestNoPathError(t *testing.T) {
	g := crossbar()
	inst := fault.NewInstance(g)
	// Open all of input 0's switches.
	for _, e := range g.OutEdges(g.Inputs()[0]) {
		inst.SetState(e, fault.Open)
	}
	rt := NewRepairedRouter(inst)
	if _, err := rt.Connect(g.Inputs()[0], g.Outputs()[0]); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	// Input 1 is unaffected.
	if _, err := rt.Connect(g.Inputs()[1], g.Outputs()[0]); err != nil {
		t.Fatal(err)
	}
}

func TestRepairedRouterAvoidsFaultyVertices(t *testing.T) {
	g := crossbar2()
	inst := fault.NewInstance(g)
	// Fail one switch into out0; its internal endpoint is discarded but a
	// parallel middle vertex still serves the (in0, out0) pair.
	target := g.InEdges(g.Outputs()[0])[0]
	discarded := g.EdgeFrom(target)
	inst.SetState(target, fault.Closed)
	rt := NewRepairedRouter(inst)
	path, err := rt.Connect(g.Inputs()[0], g.Outputs()[0])
	if err != nil {
		t.Fatalf("no alternate route: %v", err)
	}
	for _, v := range path {
		if v == discarded {
			t.Fatal("path used discarded vertex")
		}
	}
}

func TestDisconnectUnknown(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	if err := rt.Disconnect(g.Inputs()[0], g.Outputs()[0]); !errors.Is(err, ErrNoCircuit) {
		t.Fatalf("disconnect of unknown circuit: err = %v, want ErrNoCircuit", err)
	}
}

func TestReset(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	_, _ = rt.Connect(g.Inputs()[0], g.Outputs()[0])
	rt.Reset()
	if rt.ActiveCircuits() != 0 {
		t.Fatal("Reset left circuits")
	}
	if _, err := rt.Connect(g.Inputs()[0], g.Outputs()[0]); err != nil {
		t.Fatalf("connect after reset: %v", err)
	}
}

func TestPathOf(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	want, _ := rt.Connect(g.Inputs()[1], g.Outputs()[0])
	got := rt.PathOf(g.Inputs()[1], g.Outputs()[0])
	if len(got) != len(want) {
		t.Fatal("PathOf mismatch")
	}
	if rt.PathOf(g.Inputs()[0], g.Outputs()[1]) != nil {
		t.Fatal("PathOf invented a circuit")
	}
}

// --- sharded engine on the tiny crossbars ---

func TestConcurrentBatchDisjoint(t *testing.T) {
	g := crossbar()
	se := NewShardedEngine(g, 1)
	reqs := []Request{
		{g.Inputs()[0], g.Outputs()[0]},
		{g.Inputs()[1], g.Outputs()[1]},
	}
	results := se.ConnectBatch(reqs, nil)
	for i, res := range results {
		if res.Path == nil {
			t.Fatalf("request %d failed", i)
		}
	}
	if err := se.VerifyState(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRelease(t *testing.T) {
	g := crossbar()
	se := NewShardedEngine(g, 1)
	in, out := g.Inputs()[0], g.Outputs()[0]
	res := se.ConnectBatch([]Request{{in, out}}, nil)
	if res[0].Path == nil {
		t.Fatal("connect failed")
	}
	mid := res[0].Path[1]
	if se.owner[mid] != in {
		t.Fatalf("middle vertex owned by %d, want input %d", se.owner[mid], in)
	}
	if err := se.Disconnect(in, out); err != nil {
		t.Fatal(err)
	}
	if se.owner[mid] != -1 {
		t.Fatal("disconnect did not free vertex")
	}
}

func TestConcurrentHighContention(t *testing.T) {
	// 16 requests compete for 2 inputs' worth of disjoint paths: the
	// decisions must be the sequential router's and the claim state
	// consistent.
	g := crossbar()
	se := NewShardedEngine(g, 1)
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{g.Inputs()[i%2], g.Outputs()[(i/2)%2]})
	}
	results := se.ConnectBatch(reqs, nil)
	if err := se.VerifyState(); err != nil {
		t.Fatalf("contention broke the claim state: %v", err)
	}
	want := NewRouter(g).ConnectBatch(reqs, nil)
	ok := 0
	for i, res := range results {
		if (res.Path == nil) != (want[i].Path == nil) {
			t.Fatalf("request %d: decision differs from the sequential router", i)
		}
		if res.Path != nil {
			ok++
		}
	}
	// The two inputs can host at most 2 simultaneous circuits.
	if ok > 2 {
		t.Fatalf("%d circuits on 2 inputs", ok)
	}
	if ok == 0 {
		t.Fatal("no circuit established at all")
	}
}

func TestConcurrentRepairedRouter(t *testing.T) {
	g := crossbar2()
	inst := fault.NewInstance(g)
	inst.SetState(g.OutEdges(g.Inputs()[0])[0], fault.Open)
	se := NewRepairedShardedEngine(inst, 1)
	res := se.ConnectBatch([]Request{{g.Inputs()[0], g.Outputs()[0]}}, nil)
	if res[0].Path == nil {
		t.Fatal("repaired sharded engine found no alternate path")
	}
	for _, v := range res[0].Path {
		if faulty := inst.FaultyVerticesInto(nil); faulty[v] && !g.IsTerminal(v) {
			t.Fatal("path used discarded vertex")
		}
	}
}

func TestVerifyInvariantsCatchesCorruption(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	path, _ := rt.Connect(g.Inputs()[0], g.Outputs()[0])
	// Corrupt: free a path vertex behind the router's back.
	rt.busy[path[1]] = false
	if err := rt.VerifyInvariants(); err == nil {
		t.Fatal("invariant corruption not detected")
	}
}

func TestEpochWraparound(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	rt.epoch = ^uint32(0) - 1
	for i := 0; i < 4; i++ {
		if _, err := rt.Connect(g.Inputs()[0], g.Outputs()[0]); err != nil {
			t.Fatalf("connect around epoch wrap: %v", err)
		}
		if err := rt.Disconnect(g.Inputs()[0], g.Outputs()[0]); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkSequentialConnect(b *testing.B) {
	g := crossbar()
	rt := NewRouter(g)
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := g.Inputs()[r.Intn(2)]
		out := g.Outputs()[r.Intn(2)]
		if path, err := rt.Connect(in, out); err == nil {
			_ = path
			_ = rt.Disconnect(in, out)
		}
	}
}
