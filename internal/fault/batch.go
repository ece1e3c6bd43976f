package fault

import (
	"fmt"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

// BatchInjector draws the failure positions for a whole block of
// Monte-Carlo trials in one sweep and replays them onto a reusable
// Instance trial by trial as diffs, so advancing from trial k to trial
// k+1 costs O(#failures of k + #failures of k+1) instead of the O(E)
// Reset+redraw of InjectInto. A diff is the ascending list of switches
// whose state changed, found by one merge of the two trials' failure
// lists (both ascending, as the draw emits them); the injector keeps no
// per-switch table.
//
// Determinism contract: trial j of a block filled with FillStream(m, seed,
// first, n) draws its failures from exactly the stream rng.Stream(seed,
// first+j), through the one draw Instance.Reinject uses — so the state
// after ApplyNext is bit-identical to a fresh InjectInto with that
// trial's stream, and RNGState(j) is the stream's post-injection state
// (resume it for churn randomness). Block size and scheduling
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
	states []rng.State

	// Failure list currently in force on the instance (survives across
	// blocks, so diffing continues seamlessly at block boundaries).
	applied   []int32
	appliedSt []State

	next int // index of the next unapplied trial in the block

	diff []int32 // ApplyNext's result, reused

	r rng.RNG
}

// NewBatchInjector returns an injector for graphs over g. The paired
// Instance must start fault-free (as NewInstance returns it).
func NewBatchInjector(g *graph.Graph) *BatchInjector {
	return &BatchInjector{g: g, off: []int{0}}
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
// seeding used by the montecarlo harness. It panics with Model.Validate's
// error if m is not a valid fault model, and if n < 0; both are caller
// bugs.
func (bi *BatchInjector) FillStream(m Model, seed, first uint64, n int) {
	bi.beginFill(m, n)
	for j := 0; j < n; j++ {
		bi.r.ReseedStream(seed, first+uint64(j))
		bi.fillTrial()
	}
}

// FillSeq is FillStream for experiments that seed trial i with a plain
// rng.New(seedBase+i) (the historical E7/E9 convention): trial first+j
// draws from a generator reseeded to seedBase+first+j.
func (bi *BatchInjector) FillSeq(m Model, seedBase, first uint64, n int) {
	bi.beginFill(m, n)
	for j := 0; j < n; j++ {
		bi.r.Reseed(seedBase + first + uint64(j))
		bi.fillTrial()
	}
}

func (bi *BatchInjector) beginFill(m Model, n int) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
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
	if cap(bi.states) < n {
		bi.states = make([]rng.State, n)
	}
	bi.states = bi.states[:0]
	bi.next = 0
}

// fillTrial appends one trial's failure list, drawn from bi.r by the
// draw that Instance.Reinject uses, so both consume the same randomness.
func (bi *BatchInjector) fillTrial() {
	draw(bi.m, bi.g.NumEdges(), &bi.r, func(e int32, s State) {
		bi.pos = append(bi.pos, e)
		bi.st = append(bi.st, s)
	})
	bi.off = append(bi.off, len(bi.pos))
	bi.states = append(bi.states, bi.r.State())
}

// ApplyNext advances inst from the previously applied trial's switch
// states to the next trial's and returns the diff: the switches whose
// state changed, each once, in ascending order. The returned slice is
// reused by the next call. After ApplyNext, inst is bit-identical to a
// fresh InjectInto with the trial's generator.
func (bi *BatchInjector) ApplyNext(inst *Instance) []int32 {
	j := bi.next
	if j >= bi.Len() {
		panic("fault: BatchInjector block exhausted")
	}
	newPos, newSt := bi.TrialFailures(j)

	// Merge the applied list with the new one. A switch only the applied
	// list names heals; any other takes its new failure state. Either way
	// it joins the diff only if its state moves.
	old := bi.applied
	bi.diff = bi.diff[:0]
	for a, b := 0, 0; a < len(old) || b < len(newPos); {
		var e int32
		s := Normal
		if b == len(newPos) || a < len(old) && old[a] < newPos[b] {
			e = old[a]
			a++
		} else {
			e, s = newPos[b], newSt[b]
			if a < len(old) && old[a] == e {
				a++
			}
			b++
		}
		if inst.Edge[e] != s {
			inst.SetState(e, s)
			bi.diff = append(bi.diff, e)
		}
	}

	bi.applied = append(bi.applied[:0], newPos...)
	bi.appliedSt = append(bi.appliedSt[:0], newSt...)
	bi.next = j + 1
	return bi.diff
}

// Rebase resets inst to the fault-free state and forgets the applied
// list, so the next ApplyNext diffs against no failures. Call it when
// the instance was mutated outside the injector (e.g. by a direct
// InjectInto, or a caller setting a diff's switches back) before the
// next ApplyNext.
func (bi *BatchInjector) Rebase(inst *Instance) {
	inst.Reset()
	bi.applied = bi.applied[:0]
	bi.appliedSt = bi.appliedSt[:0]
}
