package hyperx

import (
	"fmt"
	"testing"
)

func TestNewValidates(t *testing.T) {
	for _, bad := range []struct {
		dims  []int
		depth int
	}{
		{nil, 2}, {[]int{1, 3}, 2}, {[]int{2, 2}, 0},
	} {
		if _, err := New(bad.dims, bad.depth); err == nil {
			t.Errorf("New(%v, %d) accepted invalid parameters", bad.dims, bad.depth)
		}
	}
}

func TestShape(t *testing.T) {
	nw, err := New([]int{3, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if nw.N != 6 {
		t.Fatalf("N = %d, want 6", nw.N)
	}
	// hold + (3-1) + (2-1) = 4 out-slots per switch per hop.
	wantEdges := 2*6 + 3*6*4
	if nw.G.NumEdges() != wantEdges {
		t.Fatalf("NumEdges = %d, want %d", nw.G.NumEdges(), wantEdges)
	}
	if len(nw.G.Inputs()) != 6 || len(nw.G.Outputs()) != 6 {
		t.Fatalf("terminals = %d/%d, want 6/6", len(nw.G.Inputs()), len(nw.G.Outputs()))
	}
}

// TestLevels pins the family's role in the Levels contract: unstaged,
// levelable, and — because terminals are allocated before the columns —
// NOT level-sorted, so it exercises the permutation sweep path.
func TestLevels(t *testing.T) {
	nw, err := New([]int{2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := nw.G.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv.Sorted() {
		t.Fatal("hyperx IDs unexpectedly level-sorted; permutation path not exercised")
	}
	if got, want := lv.NumLevels(), nw.Depth+3; got != want {
		t.Fatalf("NumLevels = %d, want %d", got, want)
	}
	for _, in := range nw.G.Inputs() {
		if lv.PerVertex()[in] != 0 {
			t.Fatalf("input %d at level %d, want 0", in, lv.PerVertex()[in])
		}
	}
	for _, out := range nw.G.Outputs() {
		if got := lv.PerVertex()[out]; got != int32(nw.Depth+2) {
			t.Fatalf("output %d at level %d, want %d", out, got, nw.Depth+2)
		}
	}
	for tcol := 0; tcol <= nw.Depth; tcol++ {
		for r := 0; r < nw.N; r++ {
			if got := lv.PerVertex()[nw.Switch(tcol, r)]; got != int32(tcol+1) {
				t.Fatalf("switch (%d,%d) at level %d, want %d", tcol, r, got, tcol+1)
			}
		}
	}
}

// TestFullAccess checks that with depth ≥ number of dimensions every input
// reaches every output through the fault-free network — the unrolling is
// deep enough for one hop per dimension.
func TestFullAccess(t *testing.T) {
	nw, err := New([]int{3, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	all := func(int32) bool { return true }
	for _, in := range nw.G.Inputs() {
		seen := nw.G.ReachableFrom(in, all)
		for _, out := range nw.G.Outputs() {
			if !seen[out] {
				t.Fatalf("input %d cannot reach output %d in fault-free network", in, out)
			}
		}
	}
}

// FuzzBuild drives New over small lattice shapes and checks the structural
// invariants: a valid graph with a leveling whose columns land on
// consecutive levels.
func FuzzBuild(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2))
	f.Add(uint8(3), uint8(4), uint8(1))
	f.Add(uint8(2), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, d1, d2, depth uint8) {
		dims := []int{2 + int(d1%4)}
		if d2%4 != 0 {
			dims = append(dims, 2+int(d2%4))
		}
		nw, err := New(dims, 1+int(depth%4))
		if err != nil {
			t.Fatalf("New(%v): %v", dims, err)
		}
		if err := nw.G.Validate(); err != nil {
			t.Fatal(err)
		}
		lv, err := nw.G.Levels()
		if err != nil {
			t.Fatal(err)
		}
		if lv.NumLevels() != nw.Depth+3 {
			t.Fatalf("NumLevels = %d, want %d", lv.NumLevels(), nw.Depth+3)
		}
		for e := int32(0); e < int32(nw.G.NumEdges()); e++ {
			u, v := nw.G.EdgeFrom(e), nw.G.EdgeTo(e)
			if lv.PerVertex()[v] != lv.PerVertex()[u]+1 {
				t.Fatalf("edge %d→%d spans levels %d→%d", u, v, lv.PerVertex()[u], lv.PerVertex()[v])
			}
		}
	})
}

// Switch returns the vertex ID of lattice rank r in column t.
func (nw *Network) Switch(t, r int) int32 {
	if t < 0 || t > nw.Depth || r < 0 || r >= nw.N {
		panic(fmt.Sprintf("hyperx: Switch(%d,%d) out of range", t, r))
	}
	return nw.colBase[t] + int32(r)
}
