package superconc

import (
	"testing"

	"ftcsn/internal/maxflow"
	"ftcsn/internal/rng"
)

func TestBaseCaseCrossbar(t *testing.T) {
	nw, err := New(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// n ≤ BaseSize: complete bipartite 4×4 = 16 switches.
	if nw.Size() != 16 {
		t.Fatalf("size = %d", nw.Size())
	}
	if err := nw.VerifyExhaustive(4); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(8, 1, 1); err == nil {
		t.Fatal("accepted d=1")
	}
	if _, err := New(0, 3, 1); err == nil {
		t.Fatal("accepted n=0")
	}
}

// TestNewReturnsHallFailure: at d = 2 no concentrator for n = 16 passes
// the Hall check in hallRetries draws, and New says so with an error
// instead of panicking.
func TestNewReturnsHallFailure(t *testing.T) {
	nw, err := New(16, 2, 1)
	if err == nil {
		t.Fatalf("New(16, 2, 1) built %d switches; want the Hall-check error", nw.Size())
	}
}

func TestNonPowerOfTwoSizes(t *testing.T) {
	// The 3n/4 recursion naturally visits non-powers of two; they must
	// build and verify.
	for _, n := range []int{5, 6, 12} {
		nw, err := New(n, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		maxR := n
		if n > 8 {
			maxR = 2
		}
		if err := nw.VerifyExhaustive(maxR); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSuperconcentrator8Exhaustive(t *testing.T) {
	nw, err := New(8, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyExhaustive(8); err != nil {
		t.Fatal(err)
	}
	if err := nw.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSuperconcentrator16Exhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	nw, err := New(16, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive up to r=3 (C(16,3)² = 313600 flow calls is too many; cap
	// at r=2), then sampled across all r.
	if err := nw.VerifyExhaustive(2); err != nil {
		t.Fatal(err)
	}
	if v := nw.VerifySampled(300, rng.New(5)); v != 0 {
		t.Fatalf("%d sampled violations", v)
	}
}

func TestSuperconcentrator64Sampled(t *testing.T) {
	nw, err := New(64, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v := nw.VerifySampled(120, rng.New(9)); v != 0 {
		t.Fatalf("%d sampled violations at n=64", v)
	}
}

func TestLinearSize(t *testing.T) {
	// Size must be O(n): the recursion T(n) = (2d+1)n + T(3n/4) solves to
	// ≤ 4(2d+1)n + base-crossbar slack, so size/n must stay below that
	// constant at every n.
	d := 4
	bound := float64(4*(2*d+1)) + 8 // geometric series + base cutoff slack
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		nw, err := New(n, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(nw.Size()) / float64(n)
		if ratio > bound {
			t.Fatalf("n=%d: size/n = %v above linear bound %v", n, ratio, bound)
		}
	}
}

func TestFullSaturation(t *testing.T) {
	nw, _ := New(32, 4, 11)
	flow := maxflow.VertexDisjointPaths(nw.G, nw.G.Inputs(), nw.G.Outputs())
	if flow != 32 {
		t.Fatalf("r=n flow = %d", flow)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, _ := New(16, 3, 42)
	b, _ := New(16, 3, 42)
	if a.Size() != b.Size() {
		t.Fatal("same seed, different networks")
	}
	c, _ := New(16, 3, 43)
	_ = c // different seed may or may not change the size; just ensure it builds
}

// Size returns the switch count; the construction is O(n): at most
// (2d+2)·2n switches over the whole recursion.
func (nw *Network) Size() int { return nw.G.NumEdges() }
