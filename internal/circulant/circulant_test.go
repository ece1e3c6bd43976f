package circulant

import (
	"fmt"
	"testing"
)

func TestNewValidates(t *testing.T) {
	for _, bad := range []struct {
		n       int
		strides []int
		depth   int
	}{
		{1, []int{1}, 2},
		{5, nil, 2},
		{5, []int{0}, 2},
		{5, []int{5}, 2},
		{5, []int{2, 2}, 2},
		{5, []int{1}, 0},
	} {
		if _, err := New(bad.n, bad.strides, bad.depth); err == nil {
			t.Errorf("New(%d, %v, %d) accepted invalid parameters",
				bad.n, bad.strides, bad.depth)
		}
	}
}

func TestShape(t *testing.T) {
	nw, err := New(6, []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.G.Validate(); err != nil {
		t.Fatal(err)
	}
	wantEdges := 2*6 + 4*6*3 // terminals + depth·n·(hold+2 strides)
	if nw.G.NumEdges() != wantEdges {
		t.Fatalf("NumEdges = %d, want %d", nw.G.NumEdges(), wantEdges)
	}
}

// TestLevels pins the family's role in the Levels contract: unstaged,
// levelable, and not level-sorted (terminals first), so it exercises the
// permutation sweep path.
func TestLevels(t *testing.T) {
	nw, err := New(5, []int{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := nw.G.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv.Sorted() {
		t.Fatal("circulant IDs unexpectedly level-sorted; permutation path not exercised")
	}
	if got, want := lv.NumLevels(), nw.Depth+3; got != want {
		t.Fatalf("NumLevels = %d, want %d", got, want)
	}
	for tcol := 0; tcol <= nw.Depth; tcol++ {
		for i := 0; i < nw.N; i++ {
			if got := lv.PerVertex()[nw.Relay(tcol, i)]; got != int32(tcol+1) {
				t.Fatalf("relay (%d,%d) at level %d, want %d", tcol, i, got, tcol+1)
			}
		}
	}
}

// TestFullAccess checks that with stride 1 and depth ≥ n−1 every input
// reaches every output fault-free (walks can realize any ring offset).
func TestFullAccess(t *testing.T) {
	nw, err := New(5, []int{1}, 4)
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

// FuzzBuild drives New over small rings and checks structural invariants:
// a valid graph whose leveling steps by exactly one along every edge.
func FuzzBuild(f *testing.F) {
	f.Add(uint8(5), uint8(1), uint8(2), uint8(3))
	f.Add(uint8(8), uint8(3), uint8(5), uint8(2))
	f.Add(uint8(2), uint8(1), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, n8, s1, s2, depth uint8) {
		n := 2 + int(n8%9)
		strides := []int{1 + int(s1)%(n-1)}
		if s2 != 0 {
			s := 1 + int(s2)%(n-1)
			if s != strides[0] {
				strides = append(strides, s)
			}
		}
		nw, err := New(n, strides, 1+int(depth%5))
		if err != nil {
			t.Fatalf("New(%d, %v): %v", n, strides, err)
		}
		if err := nw.G.Validate(); err != nil {
			t.Fatal(err)
		}
		lv, err := nw.G.Levels()
		if err != nil {
			t.Fatal(err)
		}
		for e := int32(0); e < int32(nw.G.NumEdges()); e++ {
			u, v := nw.G.EdgeFrom(e), nw.G.EdgeTo(e)
			if lv.PerVertex()[v] != lv.PerVertex()[u]+1 {
				t.Fatalf("edge %d→%d spans levels %d→%d", u, v, lv.PerVertex()[u], lv.PerVertex()[v])
			}
		}
	})
}

// Relay returns the vertex ID of ring position i in column t.
func (nw *Network) Relay(t, i int) int32 {
	if t < 0 || t > nw.Depth || i < 0 || i >= nw.N {
		panic(fmt.Sprintf("circulant: Relay(%d,%d) out of range", t, i))
	}
	return nw.colBase[t] + int32(i)
}
