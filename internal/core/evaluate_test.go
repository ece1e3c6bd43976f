package core

import (
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/rng"
)

func buildSmall(t testing.TB) *Network {
	t.Helper()
	nw, err := Build(DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestEvaluatorMatchesNetworkEvaluate: a reused evaluator, the one-shot
// Network.Evaluate, and the per-trial reference agree bit for bit,
// including the churn phase, across many seeds.
func TestEvaluatorMatchesNetworkEvaluate(t *testing.T) {
	nw := buildSmall(t)
	ev := NewEvaluator(nw)
	rf := newRefTrial(nw)
	m := fault.Symmetric(0.01)
	for seed := uint64(0); seed < 40; seed++ {
		want := rf.run(m, rng.New(seed), 80)
		if got := ev.Evaluate(m, seed, 80); got != want {
			t.Fatalf("seed %d: evaluator %+v != reference %+v", seed, got, want)
		}
		if got := nw.Evaluate(m, seed, 80); got != want {
			t.Fatalf("seed %d: Network.Evaluate %+v != reference %+v", seed, got, want)
		}
	}
}

// TestEvaluatorAllocFree: steady-state trials on a warmed evaluator with
// its default Router — injection, repair, certificate, and churn — must
// not allocate, whether run as one-trial Evaluate calls or from a block.
func TestEvaluatorAllocFree(t *testing.T) {
	nw := buildSmall(t)
	ev := NewEvaluator(nw)
	m := fault.Symmetric(0.005)
	seed := uint64(0)
	for ; seed < 30; seed++ {
		ev.Evaluate(m, seed, 60)
	}
	if avg := testing.AllocsPerRun(100, func() {
		seed++
		ev.Evaluate(m, seed, 60)
	}); avg > 0 {
		t.Fatalf("Evaluate allocates %.2f allocs/op in steady state, want 0", avg)
	}

	var out TrialOutcome
	ev.StartBlock(m, 0xA110C, 0, 400)
	for i := 0; i < 40; i++ {
		ev.EvaluateNextInto(&out, 60)
	}
	if avg := testing.AllocsPerRun(100, func() {
		ev.EvaluateNextInto(&out, 60)
	}); avg > 0 {
		t.Fatalf("EvaluateNextInto allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// TestEvaluatorCertifiesFaultFree: with ε=0 every certificate holds and
// churn never blocks.
func TestEvaluatorCertifiesFaultFree(t *testing.T) {
	nw := buildSmall(t)
	ev := NewEvaluator(nw)
	out := ev.Evaluate(fault.Symmetric(0), 1, 200)
	if !out.Success || !out.MajorityAccess || out.Shorted || out.ChurnFailures != 0 {
		t.Fatalf("fault-free trial failed: %+v", out)
	}
	if out.FailedSwitches != 0 {
		t.Fatalf("fault-free trial reported %d failures", out.FailedSwitches)
	}
}

// TestEvaluatorChurnDeterministic: two evaluators (each reusing its own
// churn driver and scratch across trials) produce identical outcomes for
// identical (model, seed) trials — state reuse leaks nothing between
// trials.
func TestEvaluatorChurnDeterministic(t *testing.T) {
	nw := buildSmall(t)
	ev1 := NewEvaluator(nw)
	ev2 := NewEvaluator(nw)
	// Drive both through identical fault draws, then compare churn stats.
	m := fault.Symmetric(0.002)
	for seed := uint64(0); seed < 10; seed++ {
		a := ev1.Evaluate(m, seed, 150)
		b := ev2.Evaluate(m, seed, 150)
		if a != b {
			t.Fatalf("seed %d: evaluator runs diverge: %+v vs %+v", seed, a, b)
		}
	}
}

// TestRepairMasksIntoMatches cross-checks the in-place mask builder,
// traversal bytes included, against fresh masks across reused buffers.
func TestRepairMasksIntoMatches(t *testing.T) {
	nw := buildSmall(t)
	g := nw.G
	inst := fault.NewInstance(g)
	var m Masks
	var r rng.RNG
	for i := 0; i < 30; i++ {
		r.ReseedStream(3, uint64(i))
		fault.InjectInto(inst, fault.Symmetric(0.02), &r)
		RepairMasksInto(inst, &m)
		want := RepairMasks(inst)
		for v := range want.VertexOK {
			if m.VertexOK[v] != want.VertexOK[v] {
				t.Fatalf("trial %d: VertexOK[%d] mismatch", i, v)
			}
		}
		for e := range want.EdgeOK {
			if m.EdgeOK[e] != want.EdgeOK[e] {
				t.Fatalf("trial %d: EdgeOK[%d] mismatch", i, e)
			}
		}
		wantOut := g.BuildOutAllowed(want.EdgeOK, want.VertexOK, nil)
		if len(m.OutAllowed) != len(wantOut) {
			t.Fatalf("trial %d: traversal bytes have %d slots, want %d", i, len(m.OutAllowed), len(wantOut))
		}
		for s := range wantOut {
			if m.OutAllowed[s] != wantOut[s] {
				t.Fatalf("trial %d: slot %d byte %#x, want %#x", i, s, m.OutAllowed[s], wantOut[s])
			}
		}
	}
}
