package benes

import (
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/rng"
)

func TestNewStructure(t *testing.T) {
	nw, err := New(3) // n=8
	if err != nil {
		t.Fatal(err)
	}
	if nw.N != 8 || nw.Columns != 6 {
		t.Fatalf("N=%d Columns=%d", nw.N, nw.Columns)
	}
	// Size: (2k−1) transitions × 2n edges = 5*16 = 80.
	if nw.G.NumEdges() != 80 {
		t.Fatalf("edges = %d, want 80", nw.G.NumEdges())
	}
	if err := nw.G.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := nw.G.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 { // 2k−1
		t.Fatalf("depth = %d, want 5", d)
	}
}

func TestNewRejectsBadK(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := New(21); err == nil {
		t.Fatal("accepted k=21")
	}
}

func TestTransitionBits(t *testing.T) {
	// k=3: bits must be 2,1,0,1,2 (butterfly then mirror).
	want := []int{2, 1, 0, 1, 2}
	for tr, w := range want {
		if got := TransitionBit(3, tr); got != w {
			t.Fatalf("TransitionBit(3,%d) = %d, want %d", tr, got, w)
		}
	}
}

func TestRouteIdentity(t *testing.T) {
	nw, _ := New(2)
	perm := []int{0, 1, 2, 3}
	paths, err := nw.RoutePermutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.VerifyRouting(perm, paths); err != nil {
		t.Fatal(err)
	}
}

func TestRouteAllPermutationsK2(t *testing.T) {
	nw, _ := New(2) // n=4: all 24 permutations
	perm := []int{0, 1, 2, 3}
	var rec func(k int)
	count := 0
	rec = func(k int) {
		if k == len(perm) {
			p := append([]int(nil), perm...)
			paths, err := nw.RoutePermutation(p)
			if err != nil {
				t.Fatalf("perm %v: %v", p, err)
			}
			if err := nw.VerifyRouting(p, paths); err != nil {
				t.Fatalf("perm %v: %v", p, err)
			}
			count++
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if count != 24 {
		t.Fatalf("routed %d permutations", count)
	}
}

func TestRouteAllPermutationsK3(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	nw, _ := New(3) // n=8: all 40320 permutations
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			p := append([]int(nil), perm...)
			paths, err := nw.RoutePermutation(p)
			if err != nil {
				t.Fatalf("perm %v: %v", p, err)
			}
			if err := nw.VerifyRouting(p, paths); err != nil {
				t.Fatalf("perm %v: %v", p, err)
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

func TestRouteRandomLarge(t *testing.T) {
	r := rng.New(77)
	for _, k := range []int{4, 6, 8, 10} {
		nw, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			perm := r.Perm(nw.N)
			paths, err := nw.RoutePermutation(perm)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if err := nw.VerifyRouting(perm, paths); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
	}
}

func TestRouteRejectsNonPermutation(t *testing.T) {
	nw, _ := New(2)
	if _, err := nw.RoutePermutation([]int{0, 0, 1, 2}); err == nil {
		t.Fatal("accepted duplicate")
	}
	if _, err := nw.RoutePermutation([]int{0, 1}); err == nil {
		t.Fatal("accepted short permutation")
	}
	if _, err := nw.RoutePermutation([]int{0, 1, 2, 9}); err == nil {
		t.Fatal("accepted out-of-range value")
	}
}

func TestConstantTerminalDegree(t *testing.T) {
	// The fragility root cause: every Beneš terminal has degree exactly 2,
	// independent of n.
	for _, k := range []int{2, 4, 6} {
		nw, _ := New(k)
		for _, in := range nw.G.Inputs() {
			if nw.G.OutDegree(in) != 2 {
				t.Fatalf("k=%d: input degree %d", k, nw.G.OutDegree(in))
			}
		}
	}
}

func TestFaultFragilityGrowsWithN(t *testing.T) {
	// P[some terminal isolated or shorted] must grow with n at fixed ε —
	// the qualitative content of Theorem 1 for this baseline. Exact per-
	// trial check via the necessary conditions.
	eps := 0.05
	failRate := func(k int, trials int) float64 {
		nw, _ := New(k)
		inst := fault.NewInstance(nw.G)
		fails := 0
		for i := 0; i < trials; i++ {
			inst.Reinject(fault.Symmetric(eps), rng.Stream(42, uint64(i)))
			if !inst.SurvivesBasicChecks() {
				fails++
			}
		}
		return float64(fails) / float64(trials)
	}
	small := failRate(2, 300)
	large := failRate(7, 300)
	if large <= small {
		t.Fatalf("failure rate did not grow: n=4: %v, n=128: %v", small, large)
	}
	if large < 0.5 {
		t.Fatalf("n=128 Beneš at ε=0.05 failed only %v of trials; expected gross fragility", large)
	}
}
