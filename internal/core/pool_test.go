package core

import (
	"sync"
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/route"
)

// TestPooledEvaluatorBitIdentical cycles one pool across networks of
// different sizes (so slabs are resized, reused, and re-zeroed) and
// requires every pooled trial outcome to match a fresh evaluator's — the
// property the determinism gate rests on.
func TestPooledEvaluatorBitIdentical(t *testing.T) {
	pool := NewEvaluatorPool()
	nets := []Params{
		DefaultParams(2),                         // larger first: slabs grow
		{Nu: 1, Gamma: 0, M: 4, DQ: 2, Seed: 2},  // smaller: partial reuse
		{Nu: 1, Gamma: 0, M: 16, DQ: 2, Seed: 3}, // taller again
		{Nu: 1, Gamma: 0, M: 4, DQ: 2, Seed: 2},  // repeat: exact reuse
	}
	const trials = 12
	m := fault.Symmetric(0.02)
	for round, p := range nets {
		nw := buildNetwork(t, p)
		ref := NewEvaluator(nw)
		ev := pool.NewEvaluator(nw)
		var want, got TrialOutcome
		ref.StartBlock(m, 7, 0, trials)
		ev.StartBlock(m, 7, 0, trials)
		for i := 0; i < trials; i++ {
			ref.EvaluateNextInto(&want, 50)
			ev.EvaluateNextInto(&got, 50)
			if got != want {
				t.Fatalf("round %d trial %d: pooled outcome diverged:\npooled %+v\nfresh  %+v", round, i, got, want)
			}
		}
		ev.Release()
	}
	if created, reused := pool.Arenas(); created != 1 || reused != len(nets)-1 {
		t.Errorf("arena accounting: created=%d reused=%d, want 1 and %d", created, reused, len(nets)-1)
	}
}

// TestPooledEvaluatorCertPath is the same bit-identity on the
// certificate-only pipeline (the E10 workload), which exercises the
// word-parallel certifier's arena-backed lane rows.
func TestPooledEvaluatorCertPath(t *testing.T) {
	pool := NewEvaluatorPool()
	for _, p := range []Params{DefaultParams(2), {Nu: 1, Gamma: 0, M: 8, DQ: 1, Seed: 1}} {
		nw := buildNetwork(t, p)
		ref := NewEvaluator(nw)
		ev := pool.NewEvaluator(nw)
		m := fault.Symmetric(0.01)
		var want, got TrialOutcome
		ref.StartBlock(m, 11, 0, 20)
		ev.StartBlock(m, 11, 0, 20)
		for i := 0; i < 20; i++ {
			ref.EvaluateNextCertInto(&want)
			ev.EvaluateNextCertInto(&got)
			if got != want {
				t.Fatalf("%+v: cert trial %d diverged", p, i)
			}
		}
		ev.Release()
	}
}

// TestPoolConcurrentGet mirrors how montecarlo workers construct pooled
// scratch: concurrent NewEvaluator calls must hand out disjoint arenas.
func TestPoolConcurrentGet(t *testing.T) {
	pool := NewEvaluatorPool()
	nw := buildNetwork(t, Params{Nu: 1, Gamma: 0, M: 4, DQ: 2, Seed: 2})
	const workers = 8
	evs := make([]*Evaluator, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			evs[w] = pool.NewEvaluator(nw)
			for i := 0; i < 5; i++ {
				evs[w].Evaluate(fault.Symmetric(0.05), uint64(w*5+i), 30)
			}
		}(w)
	}
	wg.Wait()
	seen := map[*Evaluator]bool{}
	for _, ev := range evs {
		if ev == nil || seen[ev] {
			t.Fatal("worker evaluators not distinct")
		}
		seen[ev] = true
		ev.Release()
	}
	if created, _ := pool.Arenas(); created != workers {
		t.Errorf("created %d arenas for %d concurrent workers", created, workers)
	}
	// After release, the next customers recycle instead of allocating.
	for i := 0; i < workers; i++ {
		pool.NewEvaluator(nw).Release()
	}
	if created, reused := pool.Arenas(); created != workers || reused != workers {
		t.Errorf("post-release accounting: created=%d reused=%d", created, reused)
	}
}

// TestReleaseUnpooledNoop: Release on a plain evaluator must leave it
// usable (it owns its buffers).
func TestReleaseUnpooledNoop(t *testing.T) {
	nw := buildNetwork(t, Params{Nu: 1, Gamma: 0, M: 4, DQ: 2, Seed: 2})
	ev := NewEvaluator(nw)
	ev.Release()
	ev.Evaluate(fault.Symmetric(0.01), 3, 20) // must not panic
}

// TestReleaseDetachesChurnEngine: an externally installed churn engine
// borrows the pooled evaluator's arena-backed mask slices; Release must
// detach them so later engine use fails loudly instead of silently
// probing whichever evaluator owns the recycled slabs next.
func TestReleaseDetachesChurnEngine(t *testing.T) {
	pool := NewEvaluatorPool()
	nw := buildNetwork(t, Params{Nu: 1, Gamma: 0, M: 4, DQ: 2, Seed: 2})
	ev := pool.NewEvaluator(nw)
	se := route.NewShardedEngine(nw.G, 1)
	ev.SetChurnEngine(se)
	var out TrialOutcome
	ev.StartBlock(fault.Symmetric(0.01), 5, 0, 4)
	for i := 0; i < 4; i++ {
		ev.EvaluateNextInto(&out, 40)
	}
	ev.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("engine use after Release did not fail loudly")
		}
	}()
	se.ConnectBatch([]route.Request{{In: nw.Inputs()[0], Out: nw.Outputs()[0]}}, nil)
}
