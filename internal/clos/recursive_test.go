package clos

import (
	"fmt"
	"testing"

	"ftcsn/internal/maxflow"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

func TestRecursiveBaseIsCrossbar(t *testing.T) {
	nw, err := NewRecursive(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N != 4 || nw.Size() != 16 || nw.Depth() != 1 {
		t.Fatalf("base case: N=%d size=%d depth=%d", nw.N, nw.Size(), nw.Depth())
	}
	if err := nw.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecursiveTwoLevels(t *testing.T) {
	nw, err := NewRecursive(3, 2) // n=9, m=5 middles of recursive 3-terminal crossbars
	if err != nil {
		t.Fatal(err)
	}
	if nw.N != 9 {
		t.Fatalf("N = %d", nw.N)
	}
	if err := nw.G.Validate(); err != nil {
		t.Fatal(err)
	}
	// Depth: stage 1 switch + middle crossbar (1) + stage 3 switch = 3.
	if nw.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", nw.Depth())
	}
	// Full saturation: strictly nonblocking ⇒ rearrangeable ⇒ flow = n.
	flow := maxflow.VertexDisjointPaths(nw.G, nw.G.Inputs(), nw.G.Outputs())
	if flow != nw.N {
		t.Fatalf("saturation flow = %d", flow)
	}
}

func TestRecursiveThreeLevelsNeverBlocks(t *testing.T) {
	nw, err := NewRecursive(2, 3) // n=8, depth 5
	if err != nil {
		t.Fatal(err)
	}
	if nw.Depth() != 5 {
		t.Fatalf("depth = %d, want 5", nw.Depth())
	}
	// Strictly nonblocking: greedy churn must never block.
	rt := route.NewRouter(nw.G)
	r := rng.New(7)
	type cir struct{ in, out int32 }
	var live []cir
	idleIn := append([]int32(nil), nw.G.Inputs()...)
	idleOut := append([]int32(nil), nw.G.Outputs()...)
	for op := 0; op < 4000; op++ {
		if len(live) == 0 || (len(idleIn) > 0 && r.Bernoulli(0.55)) {
			if len(idleIn) == 0 {
				continue
			}
			i := r.Intn(len(idleIn))
			o := r.Intn(len(idleOut))
			if _, err := rt.Connect(idleIn[i], idleOut[o]); err != nil {
				t.Fatalf("op %d: recursive Clos blocked: %v", op, err)
			}
			live = append(live, cir{idleIn[i], idleOut[o]})
			idleIn[i] = idleIn[len(idleIn)-1]
			idleIn = idleIn[:len(idleIn)-1]
			idleOut[o] = idleOut[len(idleOut)-1]
			idleOut = idleOut[:len(idleOut)-1]
		} else {
			ci := r.Intn(len(live))
			c := live[ci]
			_ = rt.Disconnect(c.in, c.out)
			idleIn = append(idleIn, c.in)
			idleOut = append(idleOut, c.out)
			live[ci] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

func TestRecursiveSizeGrowth(t *testing.T) {
	// Size per terminal grows slowly with levels (the (2−1/n₀)^k factor),
	// far below the n² crossbar at equal n.
	nw, err := NewRecursive(4, 3) // n=64
	if err != nil {
		t.Fatal(err)
	}
	crossbarSize := 64 * 64
	if nw.Size() >= crossbarSize*2 {
		t.Fatalf("recursive size %d not competitive with crossbar %d", nw.Size(), crossbarSize)
	}
}

func TestRecursiveRejects(t *testing.T) {
	if _, err := NewRecursive(1, 2); err == nil {
		t.Fatal("accepted n0=1")
	}
	if _, err := NewRecursive(2, 30); err == nil {
		t.Fatal("accepted huge levels")
	}
}

// --- strategy router ---

func TestStrategyRouterBasics(t *testing.T) {
	nw, _ := NewStrict(3, 3)
	for _, s := range []Strategy{FirstFit, Packing, Scatter} {
		rt := NewStrategyRouter(nw, s)
		mid, err := rt.Connect(0, 0)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if mid < 0 || mid >= nw.M {
			t.Fatalf("%v: middle %d out of range", s, mid)
		}
		if err := rt.VerifyOccupancy(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := rt.Disconnect(0, 0); err != nil {
			t.Fatal(err)
		}
		if rt.Active() != 0 {
			t.Fatal("circuit not released")
		}
	}
}

func TestStrategyRouterBusyTerminal(t *testing.T) {
	nw, _ := NewStrict(2, 2)
	rt := NewStrategyRouter(nw, FirstFit)
	if _, err := rt.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Connect(0, 2); err == nil {
		t.Fatal("busy input accepted")
	}
}

func TestStrictNeverBlocksAnyStrategy(t *testing.T) {
	// At m = 2n₀−1 NO strategy can block (strict-sense nonblocking).
	for _, s := range []Strategy{FirstFit, Packing, Scatter} {
		nw, _ := NewStrict(3, 4) // N=12, m=5
		rt := NewStrategyRouter(nw, s)
		r := rng.New(uint64(11 + s))
		type cir struct{ in, out int }
		var live []cir
		for op := 0; op < 5000; op++ {
			if len(live) == 0 || r.Bernoulli(0.55) {
				in := r.Intn(nw.N)
				out := r.Intn(nw.N)
				if _, err := rt.Connect(in, out); err != nil {
					// Busy terminals are fine; blocking is not.
					if rt.Active() < nw.N && !terminalBusy(rt, in, out) {
						t.Fatalf("%v blocked at op %d: %v", s, op, err)
					}
					continue
				}
				live = append(live, cir{in, out})
			} else {
				ci := r.Intn(len(live))
				_ = rt.Disconnect(live[ci].in, live[ci].out)
				live[ci] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if err := rt.VerifyOccupancy(); err != nil {
			t.Fatal(err)
		}
	}
}

func terminalBusy(rt *StrategyRouter, in, out int) bool {
	return rt.inBusy[in] || rt.outBusy[out]
}

func TestPackingBeatsScatterBelowThreshold(t *testing.T) {
	// With n₀ ≤ m < 2n₀−1, strategies differ: packing should block no
	// more often than scatter under identical random workloads.
	block := func(s Strategy) int {
		nw, _ := New(4, 5, 4) // m=5 < 7 = 2n₀−1, N=16
		rt := NewStrategyRouter(nw, s)
		r := rng.New(99)
		type cir struct{ in, out int }
		var live []cir
		blocked := 0
		for op := 0; op < 20000; op++ {
			if len(live) == 0 || r.Bernoulli(0.55) {
				in := r.Intn(nw.N)
				out := r.Intn(nw.N)
				if terminalBusy(rt, in, out) {
					continue
				}
				if _, err := rt.Connect(in, out); err != nil {
					blocked++
					continue
				}
				live = append(live, cir{in, out})
			} else {
				ci := r.Intn(len(live))
				_ = rt.Disconnect(live[ci].in, live[ci].out)
				live[ci] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		return blocked
	}
	p, sc := block(Packing), block(Scatter)
	if p > sc {
		t.Fatalf("packing blocked %d > scatter %d", p, sc)
	}
}

func TestStrategyString(t *testing.T) {
	if FirstFit.String() != "first-fit" || Packing.String() != "packing" || Scatter.String() != "scatter" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy name empty")
	}
}

// Active returns the number of live circuits.
func (r *StrategyRouter) Active() int { return len(r.circuit) }

// VerifyOccupancy checks the internal port bookkeeping against the
// circuit table.
func (r *StrategyRouter) VerifyOccupancy() error {
	load := make([]int, r.nw.M)
	for key, j := range r.circuit {
		load[j]++
		g := key[0] / r.nw.N0
		h := key[1] / r.nw.N0
		if !r.busyIn[g][j] || !r.busyOut[h][j] {
			return fmt.Errorf("clos: circuit %v on middle %d has free ports", key, j)
		}
	}
	for j := range load {
		if load[j] != r.load[j] {
			return fmt.Errorf("clos: middle %d load %d, counted %d", j, r.load[j], load[j])
		}
	}
	return nil
}
