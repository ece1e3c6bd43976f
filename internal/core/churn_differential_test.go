package core

import (
	"fmt"
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/montecarlo"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

// This file is the correctness gate for the batch-shaped churn seam: the
// block pipeline driving its churn through the guided engine must produce
// bit-identical per-trial outcomes to the per-trial reference (refTrial,
// whose churn runs on a sequential Router over its own masks). Families ×
// ε, the montecarlo harness, and a fuzz harness over op streams.

// TestDifferentialShardedChurnVsPerOp runs the block pipeline with
// SetChurnEngine(ShardedEngine) against refTrial outcomes, across the
// structural families and fault rates spanning "no failures" to "frequent
// rejects".
func TestDifferentialShardedChurnVsPerOp(t *testing.T) {
	const (
		trials   = 30
		churnOps = 80
		seed     = uint64(0xC4A2)
	)
	epss := []float64{0.0005, 0.02, 0.08}

	for name, nw := range diffFamilies(t) {
		for _, eps := range epss {
			m := fault.Symmetric(eps)
			want := refStream(nw, m, seed, trials, churnOps, false)
			label := fmt.Sprintf("%s/eps=%v", name, eps)
			ev := NewEvaluator(nw)
			ev.SetChurnEngine(route.NewShardedEngine(nw.G, 1))
			var out TrialOutcome
			for first := 0; first < trials; first += 8 {
				n := min(8, trials-first)
				ev.StartBlock(m, seed, uint64(first), n)
				for j := 0; j < n; j++ {
					ev.EvaluateNextInto(&out, churnOps)
					if out != want[first+j] {
						t.Fatalf("%s: trial %d diverged:\nsharded   %+v\nreference %+v",
							label, first+j, out, want[first+j])
					}
				}
			}
		}
	}
}

// TestDifferentialShardedChurnUnderHarness is the same parity through the
// montecarlo harness (workers × blocks), the way experiments consume it.
func TestDifferentialShardedChurnUnderHarness(t *testing.T) {
	nw := diffFamilies(t)["default-nu2"]
	const (
		trials   = 24
		churnOps = 60
		seed     = uint64(0x5EED)
	)
	m := fault.Symmetric(0.01)
	want := refStream(nw, m, seed, trials, churnOps, false)

	got := make([]TrialOutcome, trials)
	montecarlo.RunWith(
		montecarlo.Config{Trials: trials, Workers: 3, Seed: seed, Block: 5},
		func() *batchedDiffScratch {
			ev := NewEvaluator(nw)
			ev.SetChurnEngine(route.NewShardedEngine(nw.G, 1))
			return &batchedDiffScratch{ev: ev, m: m, outs: got}
		},
		func(_ *rng.RNG, s *batchedDiffScratch, i uint64) {
			s.ev.EvaluateNextInto(&s.outs[i], churnOps)
		})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trial %d diverged under harness:\nsharded   %+v\nreference %+v", i, got[i], want[i])
		}
	}
}

// TestEvaluatorShardedChurnAllocFree extends the 0 allocs/trial gate to
// the sharded churn engine (guide refresh included).
func TestEvaluatorShardedChurnAllocFree(t *testing.T) {
	nw := buildNetwork(t, DefaultParams(2))
	ev := NewEvaluator(nw)
	ev.SetChurnEngine(route.NewShardedEngine(nw.G, 1))
	m := fault.Symmetric(0.01)
	var out TrialOutcome
	const block = 16
	i := 0
	trial := func() {
		if i%block == 0 {
			ev.StartBlock(m, 99, uint64(i), block)
		}
		ev.EvaluateNextInto(&out, 60)
		i++
	}
	for j := 0; j < 2*block; j++ {
		trial() // warm up all scratch, cross a block boundary
	}
	if allocs := testing.AllocsPerRun(3*block, trial); allocs > 0 {
		t.Fatalf("sharded-churn trial allocated %.2f/run in steady state", allocs)
	}
}

// FuzzBatchChurnVsPerOp fuzzes the op-stream space: arbitrary (seed, ε,
// ops) tuples must keep the guided block pipeline bit-identical to the
// per-trial reference.
func FuzzBatchChurnVsPerOp(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(40))
	f.Add(uint64(2), uint16(800), uint8(90))
	f.Add(uint64(99), uint16(2500), uint8(255))
	nw := buildNetwork(f, Params{Nu: 1, Gamma: 0, M: 4, DQ: 2, Seed: 2})
	rf := newRefTrial(nw)
	f.Fuzz(func(t *testing.T, seed uint64, epsMil uint16, ops uint8) {
		eps := float64(epsMil%3000) / 10000.0 // 0 .. 0.3
		m := fault.Symmetric(eps)
		churnOps := int(ops)

		var r rng.RNG
		r.ReseedStream(seed, 0)
		want := rf.run(m, &r, churnOps, false)

		ev := NewEvaluator(nw)
		ev.SetChurnEngine(route.NewShardedEngine(nw.G, 1))
		ev.StartBlock(m, seed, 0, 1)
		var got TrialOutcome
		ev.EvaluateNextInto(&got, churnOps)
		if got != want {
			t.Fatalf("diverged (eps=%v ops=%d):\nsharded   %+v\nreference %+v",
				eps, churnOps, got, want)
		}
	})
}

// buildNetwork is a test helper for one-off builds.
func buildNetwork(tb testing.TB, p Params) *Network {
	tb.Helper()
	nw, err := Build(p)
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}
