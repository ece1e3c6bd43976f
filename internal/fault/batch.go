package fault

import (
	"fmt"

	"ftcsn/internal/arena"
	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// DiffEntry records one edge-state transition between consecutive fault
// trials: edge Edge moved from Old to New. A slice of entries is a
// revertible delta — see ApplyDiff and RevertDiff.
type DiffEntry struct {
	Edge     int32
	Old, New State
}

// BatchInjector draws the failure positions for a whole block of
// Monte-Carlo trials in one sweep and replays them onto a reusable
// Instance trial by trial as diffs, so advancing from trial k to trial
// k+1 costs O(#failures of k + #failures of k+1) instead of the O(E)
// Reset+redraw of InjectInto.
//
// Determinism contract: trial j of a block filled with FillStream(m, seed,
// first, n) draws its failures from exactly the stream rng.Stream(seed,
// first+j), consuming exactly the randomness Instance.Reinject would — so
// the state after ApplyNext is bit-identical to a fresh InjectInto with
// that trial's stream, and RNGState(j) is the stream's post-injection
// state (resume it for churn randomness). Block size and scheduling
// therefore never change any trial's outcome.
//
// A BatchInjector tracks the failure list currently applied to "its"
// instance; the instance must not be mutated behind its back between
// ApplyNext calls (use Rebase after doing so). It is not safe for
// concurrent use: give each Monte-Carlo worker its own.
type BatchInjector struct {
	g *graph.Graph
	m Model

	// Per-trial failure lists for the current block, CSR-style.
	pos    []int32
	st     []State
	off    []int
	opens  []int32
	closes []int32
	states []rng.State

	// Failure list currently in force on the instance (survives across
	// blocks, so diffing continues seamlessly at block boundaries).
	applied   []int32
	appliedSt []State

	next int // index of the next unapplied trial in the block

	// Diff scratch: epoch-stamped per-edge "old state" table.
	touched    []int32
	oldState   []State
	touchEpoch []uint32
	touchCur   uint32
	diff       []DiffEntry

	r rng.RNG
}

// NewBatchInjector returns an injector for graphs over g. The paired
// Instance must start fault-free (as NewInstance returns it).
func NewBatchInjector(g *graph.Graph) *BatchInjector { return NewBatchInjectorIn(g, nil) }

// NewBatchInjectorIn is NewBatchInjector drawing the O(E) tables from a
// (nil a allocates normally). The per-block failure lists stay heap-grown:
// they are proportional to the block's failure count, not the graph.
func NewBatchInjectorIn(g *graph.Graph, a *arena.Arena) *BatchInjector {
	return &BatchInjector{
		g:          g,
		off:        []int{0},
		oldState:   arena.Typed[State](a, g.NumEdges()),
		touchEpoch: a.U32(g.NumEdges()),
	}
}

// Len returns the number of trials in the current block.
func (bi *BatchInjector) Len() int { return len(bi.off) - 1 }

// Remaining returns the number of unapplied trials left in the block.
func (bi *BatchInjector) Remaining() int { return bi.Len() - bi.next }

// Applied returns the block index of the trial currently applied to the
// instance, or -1 if no trial of this block has been applied yet.
func (bi *BatchInjector) Applied() int { return bi.next - 1 }

// RNGState returns the post-injection generator state of trial j of the
// block: the exact state of trial j's stream after its failure draws.
func (bi *BatchInjector) RNGState(j int) rng.State { return bi.states[j] }

// TrialFailures returns trial j's failure list (positions ascending) as
// shared slices; do not mutate.
func (bi *BatchInjector) TrialFailures(j int) ([]int32, []State) {
	return bi.pos[bi.off[j]:bi.off[j+1]], bi.st[bi.off[j]:bi.off[j+1]]
}

// AppliedFailures returns the failure list of the currently applied trial
// (positions ascending) as shared slices; do not mutate.
func (bi *BatchInjector) AppliedFailures() ([]int32, []State) {
	return bi.applied, bi.appliedSt
}

// FillStream draws the failure lists for trials first..first+n-1, trial
// first+j from the pure per-index stream rng.Stream(seed, first+j) — the
// seeding used by the montecarlo harness. It panics if n < 0, which is
// always a caller bug.
func (bi *BatchInjector) FillStream(m Model, seed, first uint64, n int) {
	bi.beginFill(m, n)
	for j := 0; j < n; j++ {
		bi.r.ReseedStream(seed, first+uint64(j))
		bi.fillTrial(j)
	}
}

// FillSeq is FillStream for experiments that seed trial i with a plain
// rng.New(seedBase+i) (the historical E7/E9 convention): trial first+j
// draws from a generator reseeded to seedBase+first+j.
func (bi *BatchInjector) FillSeq(m Model, seedBase, first uint64, n int) {
	bi.beginFill(m, n)
	for j := 0; j < n; j++ {
		bi.r.Reseed(seedBase + first + uint64(j))
		bi.fillTrial(j)
	}
}

func (bi *BatchInjector) beginFill(m Model, n int) {
	if n < 0 {
		panic(fmt.Sprintf("fault: BatchInjector fill of a negative trial count %d", n))
	}
	if bi.next != bi.Len() {
		panic(fmt.Sprintf("fault: BatchInjector refilled with %d unapplied trials", bi.Remaining()))
	}
	bi.m = m
	bi.pos = bi.pos[:0]
	bi.st = bi.st[:0]
	bi.off = append(bi.off[:0], 0)
	bi.opens = growInt32s(bi.opens, n)[:0]
	bi.closes = growInt32s(bi.closes, n)[:0]
	if cap(bi.states) < n {
		bi.states = make([]rng.State, n)
	}
	bi.states = bi.states[:0]
	bi.next = 0
}

// fillTrial appends one trial's failure list, consuming exactly the draw
// sequence of Instance.Reinject (locked by TestBatchDiffApplyMatchesFresh).
func (bi *BatchInjector) fillTrial(j int) {
	var opens, closes int32
	p := bi.m.OpenProb + bi.m.ClosedProb
	mEdges := bi.g.NumEdges()
	switch {
	case p <= 0:
	case p >= 0.5:
		// Dense regime: draw per edge directly.
		for e := 0; e < mEdges; e++ {
			u := bi.r.Float64()
			switch {
			case u < bi.m.OpenProb:
				bi.pos = append(bi.pos, int32(e))
				bi.st = append(bi.st, Open)
				opens++
			case u < p:
				bi.pos = append(bi.pos, int32(e))
				bi.st = append(bi.st, Closed)
				closes++
			}
		}
	default:
		// Sparse regime: geometric skipping over healthy runs.
		pos := bi.r.Geometric(p)
		for pos < mEdges {
			if bi.r.Float64()*p < bi.m.OpenProb {
				bi.pos = append(bi.pos, int32(pos))
				bi.st = append(bi.st, Open)
				opens++
			} else {
				bi.pos = append(bi.pos, int32(pos))
				bi.st = append(bi.st, Closed)
				closes++
			}
			pos += 1 + bi.r.Geometric(p)
		}
	}
	bi.off = append(bi.off, len(bi.pos))
	bi.opens = append(bi.opens, opens)
	bi.closes = append(bi.closes, closes)
	bi.states = append(bi.states, bi.r.State())
}

// ApplyNext advances inst from the previously applied trial's switch
// states to the next trial's, and returns the diff: exactly the edges
// whose state changed, each once, with old and new states. The returned
// slice is reused by the next call. After ApplyNext, inst is bit-identical
// to a fresh InjectInto with the trial's generator.
//
//ftcsn:hotpath per-trial fault advance; the O(#changes) diff is why trials beat O(E) re-injection
func (bi *BatchInjector) ApplyNext(inst *Instance) []DiffEntry {
	j := bi.next
	if j >= bi.Len() {
		panic("fault: BatchInjector block exhausted")
	}
	newPos, newSt := bi.TrialFailures(j)

	// Record the pre-apply state of every edge either list touches.
	bi.bumpTouch()
	bi.touched = bi.touched[:0]
	for i, e := range bi.applied {
		bi.mark(e, bi.appliedSt[i])
	}
	for _, e := range newPos {
		bi.mark(e, inst.Edge[e]) // Normal unless also in applied
	}

	// Clear the old failures, then set the new ones.
	for _, e := range bi.applied {
		inst.Edge[e] = Normal
	}
	for i, e := range newPos {
		inst.Edge[e] = newSt[i]
	}
	inst.opens = int(bi.opens[j])
	inst.closes = int(bi.closes[j])

	bi.diff = bi.diff[:0]
	for _, e := range bi.touched {
		if s := inst.Edge[e]; s != bi.oldState[e] {
			bi.diff = append(bi.diff, DiffEntry{Edge: e, Old: bi.oldState[e], New: s})
		}
	}

	bi.applied = append(bi.applied[:0], newPos...)
	bi.appliedSt = append(bi.appliedSt[:0], newSt...)
	bi.next = j + 1
	return bi.diff
}

// Rebase resets inst to the fault-free state and forgets the applied
// list. Call it when the instance was mutated outside the injector (e.g.
// by a direct InjectInto) before the next ApplyNext.
func (bi *BatchInjector) Rebase(inst *Instance) {
	inst.Reset()
	bi.applied = bi.applied[:0]
	bi.appliedSt = bi.appliedSt[:0]
}

func (bi *BatchInjector) bumpTouch() {
	bi.touchCur++
	if bi.touchCur == 0 {
		for i := range bi.touchEpoch {
			bi.touchEpoch[i] = 0
		}
		bi.touchCur = 1
	}
}

func (bi *BatchInjector) mark(e int32, old State) {
	if bi.touchEpoch[e] != bi.touchCur {
		bi.touchEpoch[e] = bi.touchCur
		bi.oldState[e] = old
		bi.touched = append(bi.touched, e)
	}
}

// ApplyDiff applies a diff to inst (sets every entry's New state),
// maintaining the failure counters.
func ApplyDiff(inst *Instance, diff []DiffEntry) {
	for _, d := range diff {
		inst.SetState(d.Edge, d.New)
	}
}

// RevertDiff undoes a diff on inst (restores every entry's Old state),
// maintaining the failure counters. ApplyDiff followed by RevertDiff
// round-trips the instance exactly. Note that neither function updates a
// BatchInjector's applied-list tracking: after reverting, re-apply the
// diff (or Rebase) before the injector's next ApplyNext.
func RevertDiff(inst *Instance, diff []DiffEntry) {
	for i := len(diff) - 1; i >= 0; i-- {
		inst.SetState(diff[i].Edge, diff[i].Old)
	}
}

// growInt32s resizes s to n elements, reusing capacity when possible.
func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
