package fault

import (
	"testing"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// testGraph builds a small layered network with enough structure for the
// witness checks to be non-trivial: 4 inputs, two middle stages, 4 outputs.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 4
	b := graph.NewBuilder(4*n, 3*n*n)
	for s := int32(0); s < 4; s++ {
		for i := 0; i < n; i++ {
			v := b.AddVertex(s)
			if s == 0 {
				b.MarkInput(v)
			}
			if s == 3 {
				b.MarkOutput(v)
			}
		}
	}
	at := func(s, i int) int32 { return int32(s*n + i) }
	for s := 0; s < 3; s++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.AddEdge(at(s, i), at(s+1, j))
			}
		}
	}
	return b.Freeze()
}

// TestScratchWitnessesMatchAllocating cross-checks the With variants
// against the allocating originals over many random instances.
func TestScratchWitnessesMatchAllocating(t *testing.T) {
	g := testGraph(t)
	inst := NewInstance(g)
	sc := NewScratch(g)
	var r rng.RNG
	for i := 0; i < 300; i++ {
		r.ReseedStream(42, uint64(i))
		inst.Reinject(Symmetric(0.15), &r)

		a1, b1 := inst.ShortedTerminals()
		a2, b2 := inst.ShortedTerminalsWith(sc)
		if a1 != a2 || b1 != b2 {
			t.Fatalf("trial %d: ShortedTerminals (%d,%d) != With (%d,%d)", i, a1, b1, a2, b2)
		}
		i1, o1 := inst.IsolatedPair()
		i2, o2 := inst.IsolatedPairWith(sc)
		if i1 != i2 || o1 != o2 {
			t.Fatalf("trial %d: IsolatedPair (%d,%d) != With (%d,%d)", i, i1, o1, i2, o2)
		}
		if inst.SurvivesBasicChecks() != inst.SurvivesBasicChecksWith(sc) {
			t.Fatalf("trial %d: SurvivesBasicChecks mismatch", i)
		}
	}
}

// TestIntoVariantsMatch checks the Into mask builders against the
// allocating originals and that slice reuse round-trips.
func TestIntoVariantsMatch(t *testing.T) {
	g := testGraph(t)
	inst := NewInstance(g)
	var r rng.RNG
	var faulty, usable []bool
	for i := 0; i < 100; i++ {
		r.ReseedStream(7, uint64(i))
		InjectInto(inst, Symmetric(0.2), &r)
		faulty = inst.FaultyVerticesInto(faulty)
		usable = inst.RepairInto(usable)
		wantF := inst.FaultyVerticesInto(nil)
		wantU := inst.Repair()
		for v := range wantF {
			if faulty[v] != wantF[v] {
				t.Fatalf("trial %d: FaultyVerticesInto[%d] = %v, want %v", i, v, faulty[v], wantF[v])
			}
			if usable[v] != wantU[v] {
				t.Fatalf("trial %d: RepairInto[%d] = %v, want %v", i, v, usable[v], wantU[v])
			}
		}
	}
}

// TestReset returns an injected instance to the fault-free state.
func TestReset(t *testing.T) {
	g := testGraph(t)
	inst := Inject(g, Symmetric(0.5), rng.New(1))
	if inst.NumFailed() == 0 {
		t.Fatal("expected failures at eps=0.5")
	}
	inst.Reset()
	if inst.NumFailed() != 0 || inst.NumOpen() != 0 || inst.NumClosed() != 0 {
		t.Fatalf("Reset left %d failures", inst.NumFailed())
	}
	for e, s := range inst.Edge {
		if s != Normal {
			t.Fatalf("Reset left edge %d in state %v", e, s)
		}
	}
}

// TestWitnessChecksAllocFree asserts the steady-state scratch path
// allocates nothing per trial.
func TestWitnessChecksAllocFree(t *testing.T) {
	g := testGraph(t)
	inst := NewInstance(g)
	sc := NewScratch(g)
	faulty := make([]bool, g.NumVertices())
	usable := make([]bool, g.NumVertices())
	var r rng.RNG
	trial := func() {
		inst.Reinject(Symmetric(0.1), &r)
		faulty = inst.FaultyVerticesInto(faulty)
		usable = inst.RepairInto(usable)
		inst.ShortedTerminalsWith(sc)
		inst.IsolatedPairWith(sc)
	}
	i := uint64(0)
	// Warm up queue growth, then measure.
	for ; i < 20; i++ {
		r.ReseedStream(9, i)
		trial()
	}
	avg := testing.AllocsPerRun(100, func() {
		i++
		r.ReseedStream(9, i)
		trial()
	})
	if avg > 0 {
		t.Fatalf("witness checks allocate %.2f allocs/trial in steady state, want 0", avg)
	}
}
