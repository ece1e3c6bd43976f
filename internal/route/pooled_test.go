package route

import (
	"testing"
)

// TestPooledConnectAllocFree: a warmed router's connect/disconnect cycle
// allocates nothing.
func TestPooledConnectAllocFree(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	in, out := g.Inputs()[0], g.Outputs()[0]
	cycle := func() {
		if _, err := rt.Connect(in, out); err != nil {
			t.Fatal(err)
		}
		if err := rt.Disconnect(in, out); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Fatalf("pooled connect/disconnect allocates %.2f allocs/op, want 0", avg)
	}
}

// TestPooledPathRecycled: the slice retired by Disconnect backs the next
// Connect of equal-or-shorter length.
func TestPooledPathRecycled(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	in, out := g.Inputs()[1], g.Outputs()[1]
	p1, err := rt.Connect(in, out)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Disconnect(in, out); err != nil {
		t.Fatal(err)
	}
	p2, err := rt.Connect(in, out)
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &p2[0] {
		t.Fatal("retired path slice was not recycled by the next Connect")
	}
	if err := rt.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSetMasksSwapsRepairState: one router serves successive mask sets, and
// mask changes drop established circuits.
func TestSetMasksSwapsRepairState(t *testing.T) {
	g := crossbar()
	rt := NewRouter(g)
	in, out := g.Inputs()[0], g.Outputs()[0]

	// Block every switch: connect must fail.
	edgeOK := make([]bool, g.NumEdges())
	rt.SetMasks(nil, edgeOK)
	if _, err := rt.Connect(in, out); err == nil {
		t.Fatal("connect succeeded with all switches masked off")
	}

	// Restore all switches: connect succeeds, then a mask swap drops it.
	for e := range edgeOK {
		edgeOK[e] = true
	}
	rt.SetMasks(nil, edgeOK)
	if _, err := rt.Connect(in, out); err != nil {
		t.Fatal(err)
	}
	if rt.ActiveCircuits() != 1 {
		t.Fatalf("ActiveCircuits = %d, want 1", rt.ActiveCircuits())
	}
	rt.SetMasks(nil, edgeOK)
	if rt.ActiveCircuits() != 0 {
		t.Fatal("SetMasks must release established circuits")
	}
	if rt.Busy(in) || rt.Busy(out) {
		t.Fatal("SetMasks left terminals busy")
	}
}
