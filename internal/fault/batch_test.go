package fault

import (
	"math"
	"strings"
	"testing"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// bigEdgeGraph returns a 2-vertex multigraph with m parallel switches —
// the marginal-rate test bed (mirrors TestInjectRateMatchesEps).
func bigEdgeGraph(m int) *graph.Graph {
	b := graph.NewBuilder(2, m)
	u := b.AddVertex(graph.NoStage)
	v := b.AddVertex(graph.NoStage)
	for i := 0; i < m; i++ {
		b.AddEdge(u, v)
	}
	return b.Freeze()
}

// TestBatchRateMatchesEps checks the per-trial marginal failure rate of
// block-filled trials against ε with binomial tolerance, in both the
// geometric-skip and dense draw regimes.
func TestBatchRateMatchesEps(t *testing.T) {
	const mEdges = 20000
	g := bigEdgeGraph(mEdges)
	inst := NewInstance(g)
	bi := NewBatchInjector(g)
	for _, eps := range []float64{0.01, 0.3} {
		const trials = 16
		bi.FillStream(Symmetric(eps), 7, 0, trials)
		wantEach := eps * mEdges
		tol := 5 * math.Sqrt(wantEach)
		for j := 0; j < trials; j++ {
			bi.ApplyNext(inst)
			if math.Abs(float64(inst.NumOpen())-wantEach) > tol {
				t.Errorf("ε=%v trial %d: opens = %d, want ~%.0f", eps, j, inst.NumOpen(), wantEach)
			}
			if math.Abs(float64(inst.NumClosed())-wantEach) > tol {
				t.Errorf("ε=%v trial %d: closes = %d, want ~%.0f", eps, j, inst.NumClosed(), wantEach)
			}
		}
		bi.Rebase(inst)
	}
}

// batchTestGraph is the layered witness-check graph shared with the
// scratch tests.
func batchTestGraph(t testing.TB) *graph.Graph { return testGraph(t) }

// requireSameInstance asserts two instances have identical edge states and
// failure counters.
func requireSameInstance(t *testing.T, label string, got, want *Instance) {
	t.Helper()
	if got.NumOpen() != want.NumOpen() || got.NumClosed() != want.NumClosed() {
		t.Fatalf("%s: counters (%d,%d) != (%d,%d)", label,
			got.NumOpen(), got.NumClosed(), want.NumOpen(), want.NumClosed())
	}
	for e := range want.Edge {
		if got.Edge[e] != want.Edge[e] {
			t.Fatalf("%s: edge %d state %v != %v", label, e, got.Edge[e], want.Edge[e])
		}
	}
}

// TestBatchDiffApplyMatchesFresh is the core batching property: after
// ApplyNext for trial k, the instance — reached by diffs through all prior
// trials — must be bit-identical to a fresh InjectInto with trial k's
// stream, in both seeding modes and both draw regimes, including across
// block boundaries. The post-injection RNG state must match too.
func TestBatchDiffApplyMatchesFresh(t *testing.T) {
	g := batchTestGraph(t)
	for _, eps := range []float64{0.02, 0.15, 0.4} {
		m := Symmetric(eps)
		for _, seq := range []bool{false, true} {
			inst := NewInstance(g)
			fresh := NewInstance(g)
			bi := NewBatchInjector(g)
			const seed, blocks, blockLen = uint64(41), 3, 5
			var r rng.RNG
			trial := uint64(0)
			for b := 0; b < blocks; b++ {
				if seq {
					bi.FillSeq(m, seed, trial, blockLen)
				} else {
					bi.FillStream(m, seed, trial, blockLen)
				}
				for j := 0; j < blockLen; j, trial = j+1, trial+1 {
					bi.ApplyNext(inst)
					if seq {
						r.Reseed(seed + trial)
					} else {
						r.ReseedStream(seed, trial)
					}
					InjectInto(fresh, m, &r)
					requireSameInstance(t, "eps/seq mode", inst, fresh)
					if bi.RNGState(j) != r.State() {
						t.Fatalf("eps=%v seq=%v trial %d: post-injection RNG state mismatch", eps, seq, trial)
					}
				}
			}
		}
	}
}

// TestBatchDiffRoundTrip: an applied-then-reverted diff restores the prior
// trial's state exactly, and re-applying restores the new one.
func TestBatchDiffRoundTrip(t *testing.T) {
	g := batchTestGraph(t)
	inst := NewInstance(g)
	bi := NewBatchInjector(g)
	const trials = 12
	bi.FillStream(Symmetric(0.2), 99, 0, trials)

	prev := NewInstance(g) // snapshot of the state before each ApplyNext
	snap := func(dst, src *Instance) {
		copy(dst.Edge, src.Edge)
		dst.opens, dst.closes = src.opens, src.closes
	}
	for j := 0; j < trials; j++ {
		snap(prev, inst)
		diff := bi.ApplyNext(inst)
		cur := NewInstance(g)
		snap(cur, inst)

		RevertDiff(inst, diff)
		requireSameInstance(t, "revert", inst, prev)
		ApplyDiff(inst, diff)
		requireSameInstance(t, "re-apply", inst, cur)
	}
}

// TestBatchDiffEntriesAreChangesOnly: every diff entry reports a real
// state change (Old != New, Old matching the prior state), with no edge
// repeated.
func TestBatchDiffEntriesAreChangesOnly(t *testing.T) {
	g := batchTestGraph(t)
	inst := NewInstance(g)
	bi := NewBatchInjector(g)
	const trials = 20
	bi.FillStream(Symmetric(0.3), 3, 0, trials)
	prev := make([]State, g.NumEdges())
	for j := 0; j < trials; j++ {
		copy(prev, inst.Edge)
		diff := bi.ApplyNext(inst)
		seen := make(map[int32]bool, len(diff))
		changed := 0
		for _, d := range diff {
			if seen[d.Edge] {
				t.Fatalf("trial %d: edge %d appears twice in diff", j, d.Edge)
			}
			seen[d.Edge] = true
			if d.Old == d.New {
				t.Fatalf("trial %d: no-op diff entry %+v", j, d)
			}
			if prev[d.Edge] != d.Old {
				t.Fatalf("trial %d: diff entry %+v but prior state %v", j, d, prev[d.Edge])
			}
			if inst.Edge[d.Edge] != d.New {
				t.Fatalf("trial %d: diff entry %+v but new state %v", j, d, inst.Edge[d.Edge])
			}
		}
		for e := range prev {
			if prev[e] != inst.Edge[e] {
				changed++
			}
		}
		if changed != len(diff) {
			t.Fatalf("trial %d: %d edges changed but diff has %d entries", j, changed, len(diff))
		}
	}
}

// TestShortedTerminalsFromListMatches cross-checks the failure-list
// shorting witness against the full-scan original over many trials.
func TestShortedTerminalsFromListMatches(t *testing.T) {
	g := batchTestGraph(t)
	inst := NewInstance(g)
	bi := NewBatchInjector(g)
	sc := NewScratch(g)
	const trials = 300
	bi.FillStream(Symmetric(0.15), 42, 0, trials)
	for j := 0; j < trials; j++ {
		bi.ApplyNext(inst)
		a1, b1 := inst.ShortedTerminalsWith(sc)
		pos, st := bi.AppliedFailures()
		a2, b2 := inst.ShortedTerminalsFromList(pos, st, sc)
		if a1 != a2 || b1 != b2 {
			t.Fatalf("trial %d: full-scan (%d,%d) != from-list (%d,%d)", j, a1, b1, a2, b2)
		}
	}
}

// TestBatchRebase: after external mutation of the instance, Rebase resumes
// exact batched semantics.
func TestBatchRebase(t *testing.T) {
	g := batchTestGraph(t)
	inst := NewInstance(g)
	fresh := NewInstance(g)
	bi := NewBatchInjector(g)
	m := Symmetric(0.2)
	bi.FillStream(m, 5, 0, 2)
	bi.ApplyNext(inst)
	bi.ApplyNext(inst)

	// Mutate behind the injector's back, then rebase and run a new block.
	var r rng.RNG
	r.Reseed(1234)
	InjectInto(inst, m, &r)
	bi.Rebase(inst)
	if inst.NumFailed() != 0 {
		t.Fatal("Rebase left failures on the instance")
	}
	bi.FillStream(m, 5, 2, 3)
	for j := 2; j < 5; j++ {
		bi.ApplyNext(inst)
		r.ReseedStream(5, uint64(j))
		InjectInto(fresh, m, &r)
		requireSameInstance(t, "post-rebase", inst, fresh)
	}
}

// TestBatchApplyAllocFree pins the steady-state ApplyNext path at zero
// allocations per trial.
func TestBatchApplyAllocFree(t *testing.T) {
	g := batchTestGraph(t)
	inst := NewInstance(g)
	bi := NewBatchInjector(g)
	m := Symmetric(0.1)
	const block = 8
	trial := uint64(0)
	// Warm up list/diff capacity.
	for b := 0; b < 4; b++ {
		bi.FillStream(m, 11, trial, block)
		for j := 0; j < block; j++ {
			bi.ApplyNext(inst)
		}
		trial += block
	}
	avg := testing.AllocsPerRun(50, func() {
		bi.FillStream(m, 11, trial, block)
		for j := 0; j < block; j++ {
			bi.ApplyNext(inst)
		}
		trial += block
	})
	if avg > 0 {
		t.Fatalf("batched injection allocates %.2f allocs/block in steady state, want 0", avg)
	}
}

// TestBatchFillRejectsNegativeCount: a negative trial count is a caller
// bug, so both fills panic with a message naming the count rather than
// with a slice-bounds error from deep inside the block tables.
func TestBatchFillRejectsNegativeCount(t *testing.T) {
	g := bigEdgeGraph(64)
	fills := map[string]func(*BatchInjector){
		"FillStream": func(bi *BatchInjector) { bi.FillStream(Symmetric(0.01), 1, 0, -3) },
		"FillSeq":    func(bi *BatchInjector) { bi.FillSeq(Symmetric(0.01), 1, 0, -3) },
	}
	for name, fill := range fills {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "negative trial count -3") {
					t.Fatalf("panic %q, want one naming the negative count", msg)
				}
			}()
			fill(NewBatchInjector(g))
		})
	}
}
