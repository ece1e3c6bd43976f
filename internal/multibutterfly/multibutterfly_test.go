package multibutterfly

import (
	"fmt"
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/rng"
)

func TestStructure(t *testing.T) {
	nw, err := New(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N != 8 || nw.Columns != 4 {
		t.Fatalf("N=%d Columns=%d", nw.N, nw.Columns)
	}
	if err := nw.G.Validate(); err != nil {
		t.Fatal(err)
	}
	// Terminal degree 2d except where multiplicity is capped by sub-block
	// size; at k=3, stage-0 blocks have size 8, halves 4 ≥ d=2, so inputs
	// have degree 2·2 = 4.
	for _, in := range nw.G.Inputs() {
		if nw.G.OutDegree(in) != 4 {
			t.Fatalf("input degree = %d", nw.G.OutDegree(in))
		}
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(0, 2, 1); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := New(3, 0, 1); err == nil {
		t.Fatal("accepted d=0")
	}
}

func TestSubBlockOf(t *testing.T) {
	nw, _ := New(3, 2, 1) // n=8
	// At t=0, out=5 (101): bit 2 of out = 1 → lower half [4,8).
	lo, hi := nw.SubBlockOf(0, 5)
	if lo != 4 || hi != 8 {
		t.Fatalf("SubBlockOf(0,5) = [%d,%d)", lo, hi)
	}
	// At t=1 the block of out=5 is [4,8), bit 1 of 5 = 0 → upper [4,6).
	lo, hi = nw.SubBlockOf(1, 5)
	if lo != 4 || hi != 6 {
		t.Fatalf("SubBlockOf(1,5) = [%d,%d)", lo, hi)
	}
	// At t=2, block [4,6), bit 0 of 5 = 1 → [5,6).
	lo, hi = nw.SubBlockOf(2, 5)
	if lo != 5 || hi != 6 {
		t.Fatalf("SubBlockOf(2,5) = [%d,%d)", lo, hi)
	}
}

func TestRouteGreedyHealthy(t *testing.T) {
	nw, _ := New(4, 2, 3)
	for in := 0; in < nw.N; in += 3 {
		for out := 0; out < nw.N; out += 5 {
			path := nw.RouteGreedy(in, out, nil)
			if path == nil {
				t.Fatalf("healthy route %d->%d failed", in, out)
			}
			if len(path) != nw.Columns {
				t.Fatalf("path length %d", len(path))
			}
			if path[0] != nw.Wire(0, in) || path[len(path)-1] != nw.Wire(nw.K, out) {
				t.Fatal("endpoints wrong")
			}
			// Consecutive vertices joined by switches.
			for i := 0; i+1 < len(path); i++ {
				found := false
				for _, e := range nw.G.OutEdges(path[i]) {
					if nw.G.EdgeTo(e) == path[i+1] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("no switch %d->%d", path[i], path[i+1])
				}
			}
		}
	}
}

func TestRouteGreedyAroundFaults(t *testing.T) {
	// Block one intermediate vertex on the preferred route; the expander
	// multiplicity must offer an alternative (Leighton–Maggs's point).
	nw, _ := New(4, 3, 5)
	ref := nw.RouteGreedy(3, 12, nil)
	if ref == nil {
		t.Fatal("reference route failed")
	}
	blockedV := ref[1]
	path := nw.RouteGreedy(3, 12, func(v int32) bool { return v == blockedV })
	if path == nil {
		t.Fatal("no alternative route around one blocked vertex")
	}
	for _, v := range path {
		if v == blockedV {
			t.Fatal("route used blocked vertex")
		}
	}
}

func TestRouteGreedyBlockedInput(t *testing.T) {
	nw, _ := New(3, 2, 1)
	in := nw.Wire(0, 0)
	if nw.RouteGreedy(0, 3, func(v int32) bool { return v == in }) != nil {
		t.Fatal("routed from a blocked input")
	}
}

func TestConstantTerminalDegreeFragility(t *testing.T) {
	// The multibutterfly survives sparse worst-case faults but not the
	// random model: failure probability grows with n at fixed ε because
	// terminal degree is constant. Compare isolation rates at two sizes.
	eps := 0.12
	rate := func(k int) float64 {
		nw, _ := New(k, 2, 9)
		inst := fault.NewInstance(nw.G)
		fails := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			inst.Reinject(fault.Symmetric(eps), rng.Stream(31, uint64(i)))
			if a, _ := inst.IsolatedPair(); a >= 0 {
				fails++
			}
		}
		return float64(fails) / trials
	}
	small, large := rate(3), rate(7)
	if large <= small {
		t.Fatalf("isolation rate did not grow with n: %v -> %v", small, large)
	}
}

func TestMultiplicityCapAtNarrowStages(t *testing.T) {
	// k=2, d=4: blocks at the last transition have size 2 and halves of
	// size 1, so multiplicity caps at 1 there; building must not panic and
	// degrees must stay consistent.
	nw, err := New(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.G.Validate(); err != nil {
		t.Fatal(err)
	}
	d, _ := nw.G.Depth()
	if d != 2 {
		t.Fatalf("depth = %d", d)
	}
}

func TestWirePanics(t *testing.T) {
	nw, _ := New(2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	nw.Wire(-1, 0)
}

// RouteGreedy routes a single request from input `in` to output `out`
// around faulty/busy vertices: at each stage it takes any allowed switch
// into the correct sub-block (the Leighton–Maggs greedy step). blocked may
// be nil. It returns the vertex path or nil if the request is stuck.
func (nw *Network) RouteGreedy(in, out int, blocked func(int32) bool) []int32 {
	path := make([]int32, 0, nw.Columns)
	v := nw.Wire(0, in)
	if blocked != nil && blocked(v) {
		return nil
	}
	path = append(path, v)
	w := in
	for t := 0; t < nw.K; t++ {
		lo, hi := nw.SubBlockOf(t, out)
		next := -1
		for _, e := range nw.G.OutEdges(nw.Wire(t, w)) {
			tv := nw.G.EdgeTo(e)
			tw := int(tv) % nw.N
			if tw < lo || tw >= hi {
				continue
			}
			if blocked != nil && blocked(tv) {
				continue
			}
			next = tw
			break
		}
		if next < 0 {
			return nil
		}
		w = next
		path = append(path, nw.Wire(t+1, w))
	}
	if w != out {
		return nil
	}
	return path
}

// Wire returns the vertex of wire w at column c.
func (nw *Network) Wire(c, w int) int32 {
	if c < 0 || c >= nw.Columns || w < 0 || w >= nw.N {
		panic(fmt.Sprintf("multibutterfly: Wire(%d,%d) out of range", c, w))
	}
	return int32(c*nw.N + w)
}

// SubBlockOf returns the half-interval [lo,hi) of wires at column t+1 that
// a circuit heading for output `out` must enter from column t.
func (nw *Network) SubBlockOf(t, out int) (lo, hi int) {
	blockSize := nw.N >> uint(t)
	half := blockSize / 2
	block := (out >> uint(nw.K-t)) << uint(nw.K-t) // top t bits of out
	bit := out >> uint(nw.K-1-t) & 1
	lo = block + bit*half
	return lo, lo + half
}
