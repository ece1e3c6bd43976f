package route

// ShardedEngine scales circuit routing past what one sequential Router can
// serve by splitting each batch of connection requests across S shards while
// keeping the accept/reject decision — and the established path — of every
// request bit-identical to a sequential Router processing the same batch in
// order. The mechanism is speculate-then-commit:
//
//   - Phase A (parallel, lock-free): input terminals are partitioned across
//     shards; each shard speculatively routes its requests against the
//     committed claim state at batch start (a read-only snapshot: claims
//     only change in phase B), using the same depth-first path hunt as
//     Router.Connect. Shards share the read-mostly CSR-slot traversal bytes
//     (SetMasksShared) and the per-epoch output-reachability guide; each
//     owns its probe scratch — the per-worker state pattern of
//     montecarlo.BlockStarter scratches. Batches big enough to pay for the
//     handoff run on persistent worker goroutines parked on the engine's
//     task channel (one per shard beyond the caller's), so fanning a batch
//     out costs a channel wake, not a goroutine spawn. A word-parallel
//     prefilter (feasibility.go) can answer "which of these ≤64 pending
//     requests have any idle path right now" in one lane sweep before any
//     probing runs.
//
//   - Phase B (commit): requests commit in input order into the engine's
//     atomic claim array. A speculative path whose probe never touched a
//     vertex claimed earlier in the batch is provably the exact path the
//     sequential Router would have found (the probe's step sequence is
//     unchanged by the missing claims), so it commits as-is. A
//     probe that did touch one — a cross-shard (or cross-request) conflict
//     — falls back to a fresh probe against the live claim state, which is
//     exactly the sequential Router's view at that request's turn. The
//     shard partition is therefore a performance heuristic only;
//     correctness never depends on it.
//
//     On batches that ran phase A in parallel, the commit phase itself is
//     parallelized by claim-disjointness detection (see commitDisjoint):
//     one pass stamps every speculative path with its owning request, a
//     parallel sweep then proves, per request, that its probe trace is
//     untouched by any earlier request's speculative path — such traces
//     are exactly the requests the ordered walk would fast-path — and the
//     maximal conflict-free prefix commits on the workers with no ordering
//     at all (the accepted paths are pairwise disjoint, so the claim
//     stores commute). Only the residue from the first conflicted request
//     onward takes the ordered commit walk. Decisions and paths are
//     bit-identical to the ordered walk — and hence to the sequential
//     Router — by construction; see the proof at commitDisjoint.
//
// Within a batch only connects happen, so the claimed-vertex set grows
// monotonically: a request with no idle path at the batch-start snapshot
// (prefilter or probe says so) has none at its turn either, and rejecting
// it early is decision-identical to the sequential Router. This monotone
// argument plus the untouched-probe argument make the whole engine
// deterministic: results depend only on (committed state, request batch),
// never on the shard count, the scheduler, or whether the prefilter ran.
// The differential and invariance tests in sharded_test.go lock all of
// this down.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
)

// PrefilterMode selects when ServeBatch runs the word-parallel feasibility
// sweep ahead of per-request probing. The sweep is decision-neutral — it
// rejects exactly the requests whose probe would fail on the same snapshot
// — so the mode is a pure performance knob.
type PrefilterMode uint8

const (
	// PrefilterAuto engages the sweep per shard while it would pay: while
	// the shard's snapshot no-path verdicts (prefilter plus probe rejects)
	// in its previous batch were ≥1/16 of its requests that passed
	// endpoint screening. Sweeping 64 doomed requests costs one pass over
	// the CSR, where 64 failing probes would each scan their whole
	// reachable cone. Other rejects do not count, since no sweep can catch
	// them: endpoint rejects are screened out before the sweep runs, and
	// commit-time rejects come from claims made earlier in the same batch,
	// which a batch-start sweep cannot see. The policy
	// is per shard because rejects are often local — a fault cluster that
	// dooms one input range's requests says nothing about the other shards
	// — so a global rate either over-sweeps healthy shards or starves the
	// sick one. A shard with no screened requests keeps its previous
	// state. Under light load, or under load whose rejects are all busy
	// endpoints, the sweep stays out of the way everywhere. Engagement is
	// a pure function of the served stream (the partition is by input
	// terminal), so decisions remain deterministic — and the sweep itself
	// is decision-neutral regardless.
	PrefilterAuto PrefilterMode = iota
	// PrefilterOff never sweeps; every request is probed.
	PrefilterOff
	// PrefilterOn sweeps every batch.
	PrefilterOn
)

// ShardedStats counts, cumulatively, how batches were served and how the
// routing guide was maintained; it is the observability hook the stress
// tests use to prove the fast path dominates and the fallback is actually
// exercised.
type ShardedStats struct {
	Batches, Requests, Accepted int64

	// FastPath: speculative paths committed untouched (bit-identical to the
	// sequential router's by the probe-trace argument). Fallbacks: requests
	// re-probed at commit time after a conflict. Conflicts counts fallbacks
	// that had a speculative path invalidated (the rest had none).
	FastPath, Fallbacks, Conflicts int64

	// Reject breakdown: endpoints busy/unusable at snapshot, prefilter
	// lane-sweep verdicts, failed snapshot probes, and commit-time rejects
	// (endpoint taken this batch, or fallback probe found nothing).
	EndpointRejects, PrefilterRejects, ProbeRejects, CommitRejects int64

	// PrefilterSweeps counts lane sweeps run (≤64 lanes each).
	PrefilterSweeps int64

	// ParallelBatches counts batches whose phases ran on the persistent
	// worker goroutines (batch large enough for the handoff to pay);
	// DisjointCommits counts fast-path circuits committed by the
	// conflict-free parallel commit rather than the ordered walk. Both are
	// scheduling observability only — decisions and paths never depend on
	// which path served a batch.
	ParallelBatches, DisjointCommits int64

	// Adaptive-policy transitions: a shard's snapshot no-path share (see
	// PrefilterAuto) crossed the engage threshold (Engages) or fell back
	// under it (Disengages).
	// The state machine tracks in every mode — so a later switch to
	// PrefilterAuto acts on fresh evidence — but only PrefilterAuto turns
	// an engaged shard into actual sweeps. Engages-Disengages is the
	// number of shards currently engaged.
	PrefilterEngages, PrefilterDisengages int64

	// Guide maintenance: full rebuilds (construction, mask swaps, budget
	// changes, MasksChanged, and MasksChangedDiff's cutover to a rebuild)
	// and incremental MasksChangedDiff refreshes; then, over both, the rows
	// the row kernel recomputed, those whose words changed, and the lane
	// words it recomputed (one per row at ≤64 outputs, else the width of
	// the row's static span).
	GuideRebuilds, GuideRefreshes                               int64
	GuideRowsRecomputed, GuideRowsChanged, GuideWordsRecomputed int64
}

// request flags written in phase A (per batch slot). Both reject flags
// mark decisions final at the batch-start snapshot — by claim monotonicity
// the sequential router rejects these requests too.
const (
	flagNone uint8 = iota
	// flagRejected: no idle path at the snapshot (prefilter or probe).
	flagRejected
	// flagRejectedEndpoint: an endpoint was busy or unusable, so the
	// request was never probed (Result.Attempts stays 0).
	flagRejectedEndpoint
)

// probeScratch is one worker's depth-first search state: epoch-stamped
// visited marks, each discovered vertex's predecessor (the vertex whose
// slot discovered it, from which the found path is rebuilt), a
// reconstruction buffer, and an arena that speculative paths and probe
// traces are appended into so a whole batch of probes allocates nothing
// in steady state.
type probeScratch struct {
	seenEpoch []uint32
	epoch     uint32
	pred      []int32
	stack     []int32
	rev       []int32
	arena     []int32 // paths + visit traces; views stay valid across growth
}

// shard is one partition worker: the requests routed here are those whose
// input terminal maps to this shard, and idx/scratch/feas are reused
// across batches (the montecarlo.BlockStarter per-worker pattern).
type shard struct {
	idx  []int32 // request indices of this batch owned by this shard
	surv []int32 // endpoint/prefilter survivors scratch
	sc   probeScratch
	fp   *lanePass // lazily built word-parallel feasibility scratch

	// engaged is this shard's adaptive-prefilter state (PrefilterAuto):
	// sweep while the shard's own snapshot no-path share of its previous
	// batch was ≥ 1/16. Updated in the serial fold after phase A.
	engaged bool

	// per-batch counters, folded into ShardedStats after the join so phase
	// A needs no atomics.
	endpointRejects, prefilterRejects, probeRejects, sweeps int64
}

// specEntry is a request's phase-A outcome: the speculative path and the
// probe's visit trace (every vertex the search stamped), both views into
// the owning shard's arena.
type specEntry struct {
	path  []int32
	trace []int32
}

// ShardedEngine routes batches of connection requests over S shards with
// sequential-router semantics. See the package comment at the top of this
// file for the algorithm. The zero value is not usable; construct with
// NewShardedEngine or NewRepairedShardedEngine. An engine is not safe for
// concurrent use: ServeBatch/Disconnect/Reset calls must be serialized by
// the caller (ServeBatch parallelizes internally).
type ShardedEngine struct {
	g *graph.Graph

	// claims is the per-vertex claim array (0 = free, 1 = claimed): phase
	// A reads it lock-free, only the commit phases write it. allowed is the
	// CSR-slot-aligned traversal byte array the probes and sweeps read —
	// one sequentially-read byte per slot in place of the usable-switch,
	// usable-head and terminal-head lookups, exactly as the sequential
	// Router does — either built from the masks at construction
	// (graph.BuildOutAllowed, the single source of truth for the discard
	// rule's traversal semantics) or adopted from a caller that maintains
	// it incrementally (SetMasksShared). vertexOK gates endpoint admission
	// only (nil = every vertex usable).
	claims   []atomic.Int32
	allowed  []uint8
	vertexOK []bool

	// Prefilter selects the feasibility-sweep policy (default
	// PrefilterAuto). It may be changed between batches.
	Prefilter PrefilterMode

	shards []*shard

	// per-request batch state, indexed by request position.
	spec  []specEntry
	flags []uint8

	// commit-phase state: batchMark stamps vertices claimed during the
	// current batch (so fast-path validation is one load per traced
	// vertex), commitSc reprobes conflicts against live claims.
	batchMark  []uint32
	batchEpoch uint32
	commitSc   probeScratch

	// disjoint-commit state (commitDisjoint): specStamp/specOwner record,
	// per vertex, the smallest request index whose speculative path covers
	// it this batch (epoch-stamped with batchEpoch); valid holds the
	// parallel sweep's per-request verdicts; commitDst the pooled
	// destination slices handed to the parallel copy pass.
	specStamp []uint32
	specOwner []uint32
	valid     []uint8
	commitDst [][]int32

	// Persistent phase workers: len(shards)-1 goroutines parked on workCh
	// (started lazily by the first batch big enough to fan out, stopped by
	// Close or, as a backstop, by a finalizer once the engine is
	// unreachable — workers hold only the channel, never the engine, so an
	// abandoned engine stays collectable).
	workCh chan workerTask

	// committed circuits: the engines' shared per-input registry (one live
	// circuit per input terminal — an input is claimed while connected, so
	// a second circuit cannot coexist).
	circ circuits

	pathPool [][]int32

	wg sync.WaitGroup // phase-A join, hoisted to keep ServeBatch allocation-free

	// Word-parallel routing guide, rebuilt per mask epoch: reachOut holds
	// guideGroups lane words per vertex, bit (outIdx&63) of word
	// (outIdx>>6) set iff an allowed-slot path leads from the vertex to
	// that output, ignoring busy state; a row's words outside its
	// vertex's static span are zero under every mask. Probes prune
	// descents the guide proves hopeless; pruning is exact, so decisions
	// are unchanged. nil when the graph has no leveling or too many
	// outputs.
	reachOut    []uint64
	guideGroups int
	outIdx      []int32 // per-vertex output index, -1 = not an output
	// spans is the graph's per-vertex static word span
	// (graph.OutputSpans), the only words of a row that can ever be
	// nonzero; nil when rows are one word wide (≤64 outputs), and for
	// graphs OutputSpans does not cover, which route unguided.
	spans []graph.WordSpan

	// Incremental guide maintenance (MasksChangedDiff): a reverse-cone
	// worklist over the leveling, a groups-wide row scratch, and the
	// opt-in width budget (lane words per vertex) that gates whether the
	// guide exists at all. guideLimit defaults to maxGuideGroups; big-n
	// callers raise it with SetGuideLimit.
	guideWl    *graph.LevelWorklist
	rowScratch []uint64
	guideLimit int

	// lv is the graph's topological leveling (graph.Levels), the iteration
	// contract behind the feasibility sweep and the guide rebuild. nil only
	// for cyclic graphs — the cycle-safe fallback: probes still run (DFS
	// needs no leveling), but the prefilter and guide stay off.
	lv *graph.Levels

	stats ShardedStats
}

// maxGuideGroups bounds the guide's memory at 8 lane words (512 outputs)
// per vertex by default; larger networks route unguided unless the caller
// raises the budget with SetGuideLimit.
const maxGuideGroups = 8

// guideRebuildDivisor is the incremental-maintenance cutover: a diff
// touching at least 1/guideRebuildDivisor of all edges falls back to the
// full rebuild, whose straight-line sweep beats worklist bookkeeping once
// most rows are dirty anyway. Purely a cost choice — both paths produce
// bit-identical guide words.
const guideRebuildDivisor = 8

// parallelMinPerShard is the phase-A batch size (per shard) below which
// spawning goroutines costs more than it saves; smaller batches speculate
// inline. Purely a scheduling choice — results are identical either way.
const parallelMinPerShard = 8

// NewShardedEngine returns an engine over the fault-free network g with the
// given shard count. It panics if shards <= 0: a non-positive count is
// always a caller bug (an uninitialized or negated config value), and
// silently clamping it to 1 would masquerade as "run sequentially".
func NewShardedEngine(g *graph.Graph, shards int) *ShardedEngine {
	return newShardedEngine(g, nil, g.BuildOutAllowed(nil, nil, nil), shards)
}

// NewRepairedShardedEngine returns an engine over the network repaired from
// inst by the paper's discard rule. Panics if shards <= 0 (see
// NewShardedEngine).
func NewRepairedShardedEngine(inst *fault.Instance, shards int) *ShardedEngine {
	usable := inst.Repair()
	edgeOK := make([]bool, inst.G.NumEdges())
	for e := range edgeOK {
		edgeOK[e] = inst.RepairedEdgeUsable(usable, int32(e))
	}
	return newShardedEngine(inst.G, usable, inst.G.BuildOutAllowed(edgeOK, usable, nil), shards)
}

func newShardedEngine(g *graph.Graph, vertexOK []bool, allowed []uint8, shards int) *ShardedEngine {
	if shards <= 0 {
		panic(fmt.Sprintf("route: shard count must be >= 1, got %d", shards))
	}
	n := g.NumVertices()
	se := &ShardedEngine{
		g:         g,
		claims:    make([]atomic.Int32, n),
		allowed:   allowed,
		vertexOK:  vertexOK,
		shards:    make([]*shard, shards),
		batchMark: make([]uint32, n),
		specStamp: make([]uint32, n),
		specOwner: make([]uint32, n),
		outIdx:    make([]int32, n),
	}
	se.circ.init(n)
	for i := range se.shards {
		se.shards[i] = &shard{sc: se.newProbeScratch()}
	}
	se.commitSc = se.newProbeScratch()
	for v := range se.outIdx {
		se.outIdx[v] = -1
	}
	for i, v := range g.Outputs() {
		se.outIdx[v] = int32(i)
	}
	se.lv, _ = g.Levels()
	if len(g.Outputs()) > 64 {
		se.spans = g.OutputSpans()
	}
	se.guideLimit = maxGuideGroups
	if se.lv != nil {
		se.guideWl = graph.NewLevelWorklist(se.lv, n)
	}
	se.rebuildGuide()
	return se
}

func (se *ShardedEngine) newProbeScratch() probeScratch {
	n := se.g.NumVertices()
	return probeScratch{
		seenEpoch: make([]uint32, n),
		pred:      make([]int32, n),
		stack:     make([]int32, 0, 256),
	}
}

// workerTask is one unit of handed-off work: a phase-A speculation pass
// (sh != nil) or a range of a commit sub-phase (kind + [lo,hi)). Tasks are
// sent by value on a buffered channel, so fanning a batch out performs no
// allocation — the struct is copied into the channel's ring buffer.
type workerTask struct {
	se   *ShardedEngine
	sh   *shard // non-nil: phase-A speculation for this shard
	kind uint8  // taskValidate or taskCommit when sh == nil
	lo   int
	hi   int
	reqs []Request
	res  []Result
	wg   *sync.WaitGroup
}

// commit sub-phase kinds dispatched through runRange.
const (
	taskValidate uint8 = iota
	taskCommit
)

// shardedWorker is the persistent worker loop: park on the task channel,
// run whatever arrives, signal the batch's WaitGroup, park again. The loop
// references ONLY the channel — never the engine — so an abandoned engine
// stays garbage-collectable and its finalizer can shut the workers down.
// (The task-local engine pointer is dead once the iteration's last use
// passes; Go's precise stack maps keep a parked worker from pinning it.)
//
//ftcsn:hotpath runs every phase of every batch on every core; any alloc here multiplies by worker count
func shardedWorker(ch <-chan workerTask) {
	for t := range ch {
		if t.sh != nil {
			t.sh.speculate(t.se, t.reqs)
		} else {
			t.se.runRange(t.kind, t.reqs, t.res, t.lo, t.hi)
		}
		t.wg.Done()
	}
}

// ensureWorkers lazily starts the persistent phase workers (S-1 of them:
// the caller's goroutine always runs a share itself). Buffered to S so the
// fan-out loop never blocks on a send. The finalizer is a leak backstop
// only — an engine dropped without Close still stops its workers once the
// GC proves it unreachable (possible precisely because workers do not hold
// the engine); callers that care about prompt shutdown call Close.
func (se *ShardedEngine) ensureWorkers() {
	if se.workCh != nil {
		return
	}
	//ftlint:ignore hotpath lazy one-time worker startup: the channel and goroutines persist for the engine's lifetime
	se.workCh = make(chan workerTask, len(se.shards))
	for i := 1; i < len(se.shards); i++ {
		//ftlint:ignore hotpath lazy one-time worker startup: spawned once, then parked on the task channel across batches
		go shardedWorker(se.workCh)
	}
	runtime.SetFinalizer(se, (*ShardedEngine).Close)
}

// Close stops the persistent phase workers, if any are running. It is
// idempotent, safe on engines that never started workers, and does NOT
// retire the engine: the next sufficiently large batch restarts them. Must
// not be called concurrently with ServeBatch (the usual single-caller
// contract).
func (se *ShardedEngine) Close() {
	if se.workCh != nil {
		close(se.workCh)
		se.workCh = nil
	}
	runtime.SetFinalizer(se, nil)
}

// runRange dispatches one commit sub-phase over requests [lo,hi). A plain
// method call behind a constant switch — method-value closures would
// allocate per fan-out.
func (se *ShardedEngine) runRange(kind uint8, reqs []Request, res []Result, lo, hi int) {
	switch kind {
	case taskValidate:
		se.validateRange(lo, hi)
	case taskCommit:
		se.commitRange(reqs, res, lo, hi)
	}
}

// fanOut runs kind over [0,n) split into contiguous per-shard chunks:
// chunk 0 on the caller, the rest on the persistent workers. Below the
// parallel threshold it degrades to one inline call — results are
// identical either way (the ranges are data-disjoint by construction; see
// commitDisjoint).
func (se *ShardedEngine) fanOut(kind uint8, reqs []Request, res []Result, n int) {
	if n == 0 {
		return
	}
	S := len(se.shards)
	if S == 1 || n < parallelMinPerShard*S || se.workCh == nil {
		se.runRange(kind, reqs, res, 0, n)
		return
	}
	chunk := (n + S - 1) / S
	for s := 1; s < S; s++ {
		lo := s * chunk
		if lo >= n {
			break
		}
		se.wg.Add(1)
		se.workCh <- workerTask{
			se: se, kind: kind, lo: lo, hi: min(lo+chunk, n),
			reqs: reqs, res: res, wg: &se.wg,
		}
	}
	se.runRange(kind, reqs, res, 0, min(chunk, n))
	se.wg.Wait()
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// ShardedStats returns the cumulative engine-specific serving counters
// (fast-path/fallback split, reject breakdown, prefilter activity).
func (se *ShardedEngine) ShardedStats() ShardedStats { return se.stats }

// Stats returns the engine-neutral serving counters (the Engine seam);
// ShardedStats has the detailed breakdown.
func (se *ShardedEngine) Stats() EngineStats {
	return EngineStats{
		Batches:  se.stats.Batches,
		Requests: se.stats.Requests,
		Accepted: se.stats.Accepted,
		Rejected: se.stats.Requests - se.stats.Accepted,
	}
}

// ConnectBatch is ServeBatch under its Engine-seam name.
//
//ftcsn:hotpath the Engine-seam batch entry point; steady-state allocs are pinned by BenchmarkShardedChurn
func (se *ShardedEngine) ConnectBatch(reqs []Request, res []Result) []Result {
	return se.ServeBatch(reqs, res)
}

// MasksChanged rebuilds the output-reachability guide from the adopted
// traversal bytes without touching claims or circuits — the call an
// in-place mask maintainer (core.MaskUpdater) makes after editing the
// shared bytes between batches: the probes read the bytes live, but a
// stale guide prunes wrongly. It is the full-sweep fallback of
// MasksChangedDiff: callers that know the exact change lists should
// prefer the diff form, which costs O(#changes) instead of O(E·span).
func (se *ShardedEngine) MasksChanged() { se.rebuildGuide() }

// MasksChangedDiff brings the guide up to date after an in-place edit of
// the shared traversal bytes, given the exact change lists a mask
// maintainer already has (core.MaskUpdater.Apply returns the recomputed
// edge IDs; ChangedVertices the usability flips): instead of the O(E·
// span) full sweep, it recomputes only the reverse cone of the diff.
// The worklist is seeded with the tails of the changed edges (a changed
// slot byte affects exactly its tail's row) plus the changed vertices,
// and drained in descending level order — every pending successor is
// final before a row is recomputed — re-deriving each dirty row with the
// rebuild's row kernel (guideRow) and waking a row's predecessors
// (reverse CSR) only when its words actually changed. Rows outside the
// cone are untouched, so the result is bit-identical to a full rebuild
// (locked by TestIncrementalGuideMatchesRebuild and FuzzIncrementalGuide,
// which check both against a full-width reference; soundness
// argument in DESIGN.md §2.13).
//
// The lists may safely over-approximate (extra entries recompute to
// unchanged rows and early-out) but must cover every edge whose byte
// changed since the guide was last current. Like MasksChanged, it must be
// called between batches, never concurrently with ServeBatch.
//
//ftcsn:hotpath per-epoch guide maintenance — the O(#changes) replacement for the full rebuild
func (se *ShardedEngine) MasksChangedDiff(vertices, edges []int32) {
	if se.reachOut == nil {
		// No guide is derived from the bytes (unleveled graph, too many
		// outputs, or detached masks); the routers read the bytes live.
		return
	}
	if (len(vertices)+len(edges))*guideRebuildDivisor >= se.g.NumEdges() {
		se.rebuildGuide()
		return
	}
	se.stats.GuideRefreshes++
	wl := se.guideWl
	wl.Begin()
	for _, e := range edges {
		wl.Push(se.g.EdgeFrom(e))
	}
	for _, v := range vertices {
		wl.Push(v)
	}
	rstart, redges, tails := se.g.CSRIn()
	outSlotOf := se.g.OutSlot
	allowed := se.allowed
	for v, ok := wl.Next(); ok; v, ok = wl.Next() {
		if !se.guideRow(v) {
			// Early-out: predecessors read exactly these words, so the
			// cone is pruned here.
			continue
		}
		// Wake the predecessors that read v's row: tails of currently
		// open (c == 0) slots into v. Blocked slots contribute nothing,
		// and terminal slots read only v's static output bit — and any
		// tail whose slot byte itself changed is already seeded.
		for idx := rstart[v]; idx < rstart[v+1]; idx++ {
			if allowed[outSlotOf(redges[idx])] == 0 {
				wl.Push(tails[idx])
			}
		}
	}
}

// SetGuideLimit sets the guide's width budget in 64-output lane words and
// rebuilds the guide under it. The default budget (8 words = 512 outputs)
// keeps the guide's memory negligible at paper scale; big-n networks —
// where incremental maintenance makes a wide guide affordable — opt in to
// a larger budget. groups <= 0 disables the guide; pruning is exact, so
// the budget never changes decisions, only probe cost.
func (se *ShardedEngine) SetGuideLimit(groups int) {
	se.guideLimit = groups
	se.rebuildGuide()
}

// GuideWords exposes the output-reachability guide for tests and
// diagnostics: the packed rows (guideGroups words per vertex; nil when the
// guide is off) and the per-vertex word count. Read-only; contents are
// valid only until the next mask epoch.
func (se *ShardedEngine) GuideWords() ([]uint64, int) {
	return se.reachOut, se.guideGroups
}

// ActiveCircuits returns the number of committed circuits.
func (se *ShardedEngine) ActiveCircuits() int { return len(se.circ.ins) }

// PathOf returns the committed path for (in, out), or nil. The slice is
// pooled: valid only until the circuit is disconnected.
func (se *ShardedEngine) PathOf(in, out int32) []int32 {
	return se.circ.lookup(in, out)
}

// SetMasksShared adopts the usable-vertex mask and the caller-maintained
// CSR-slot traversal byte array — the same contract as
// Router.SetMasksShared — releases every committed circuit (a mask change
// invalidates established paths), and rebuilds the routing guide for the
// new mask epoch. Per-switch usability is consumed only through the
// traversal bytes (vertexOK gates endpoint admission). Slices are adopted
// without copying; callers that edit the shared bytes in place
// (core.MaskUpdater) notify the engine with MasksChanged or
// MasksChangedDiff before the next batch.
//
//ftcsn:claimowner a mask swap invalidates every outstanding claim; the bulk reset is this owner's job
func (se *ShardedEngine) SetMasksShared(vertexOK, edgeOK []bool, outAllowed []uint8) {
	_ = edgeOK
	se.dropCircuits()
	se.vertexOK = vertexOK
	se.allowed = outAllowed
	for i := range se.claims {
		se.claims[i].Store(0)
	}
	se.rebuildGuide()
}

// usableVertex reports whether v survived repair (endpoint admission).
func (se *ShardedEngine) usableVertex(v int32) bool {
	//ftlint:ignore seamcontract audited endpoint-admission accessor: vertexOK gates terminals only; per-edge admission stays in the traversal bytes
	return se.vertexOK == nil || se.vertexOK[v]
}

// claimed reports whether v is currently claimed.
func (se *ShardedEngine) claimed(v int32) bool { return se.claims[v].Load() != 0 }

// release frees the vertices of a committed path.
//
//ftcsn:claimowner the release half of the claim protocol
func (se *ShardedEngine) release(path []int32) {
	for _, v := range path {
		se.claims[v].Store(0)
	}
}

// Reset releases every committed circuit, keeping buffers and masks.
func (se *ShardedEngine) Reset() {
	se.circ.drain(func(_ int32, path []int32) {
		se.release(path)
		se.retirePath(path)
	})
}

// dropCircuits forgets circuit bookkeeping without touching claims (used
// when SetMasksShared is about to clear the whole claim array anyway).
func (se *ShardedEngine) dropCircuits() {
	se.circ.drain(func(_ int32, path []int32) { se.retirePath(path) })
}

// Disconnect releases the committed circuit between in and out.
func (se *ShardedEngine) Disconnect(in, out int32) error {
	path, ok := se.circ.remove(in, out)
	if !ok {
		return fmt.Errorf("route: no circuit (%d,%d)", in, out)
	}
	se.release(path)
	se.retirePath(path)
	return nil
}

// ServeBatch routes reqs with sequential-router semantics, reusing res
// (grown as needed) and returning per-request results in input order.
// Result.Path is pooled: valid until that circuit is disconnected.
// Attempts is 0 for endpoint rejects, 1 for snapshot decisions (fast-path
// commits and snapshot rejects), 2 for commit-time fallbacks.
//
//ftcsn:hotpath speculate-then-commit batch loop; steady phases are allocation-free (pool-miss and growth fallbacks carry in-place suppressions)
func (se *ShardedEngine) ServeBatch(reqs []Request, res []Result) []Result {
	if cap(res) < len(reqs) {
		//ftlint:ignore hotpath result-slice growth fallback: steady-state callers pass a recycled res of full capacity
		res = make([]Result, len(reqs))
	}
	res = res[:len(reqs)]
	if len(reqs) == 0 {
		return res
	}
	se.stats.Batches++
	se.stats.Requests += int64(len(reqs))

	// Partition by input terminal; reset per-batch state.
	S := len(se.shards)
	for _, sh := range se.shards {
		sh.idx = sh.idx[:0]
		sh.sc.arena = sh.sc.arena[:0]
	}
	for i := range reqs {
		in := int(reqs[i].In)
		sh := se.shards[(in%S+S)%S]
		sh.idx = append(sh.idx, int32(i))
	}
	se.spec = growSpec(se.spec, len(reqs))
	se.flags = growFlags(se.flags, len(reqs))

	// Phase A: lock-free speculation against the batch-start snapshot.
	// Batches big enough to pay for the handoff wake the persistent
	// workers (one task per shard beyond the caller's own); everything a
	// worker needs travels in the task struct, so the fan-out performs no
	// allocation. Each shard decides its own sweep from its adaptive state
	// (see PrefilterAuto).
	parallel := S > 1 && len(reqs) >= parallelMinPerShard*S
	if parallel {
		se.ensureWorkers()
		se.stats.ParallelBatches++
		se.wg.Add(S - 1)
		for s := 1; s < S; s++ {
			se.workCh <- workerTask{se: se, sh: se.shards[s], reqs: reqs, wg: &se.wg}
		}
		se.shards[0].speculate(se, reqs)
		se.wg.Wait()
	} else {
		for _, sh := range se.shards {
			sh.speculate(se, reqs)
		}
	}
	// Fold the per-shard phase-A counters, each shard first taking its
	// prefilter decision for the next batch from them.
	for _, sh := range se.shards {
		se.adapt(sh)
		se.stats.EndpointRejects += sh.endpointRejects
		se.stats.PrefilterRejects += sh.prefilterRejects
		se.stats.ProbeRejects += sh.probeRejects
		se.stats.PrefilterSweeps += sh.sweeps
		sh.endpointRejects, sh.prefilterRejects, sh.probeRejects, sh.sweeps = 0, 0, 0, 0
	}

	// Phase B: commit with sequential-walk semantics. On parallel batches
	// the maximal conflict-free prefix commits on the workers without
	// ordering (commitDisjoint proves which requests the ordered walk
	// would fast-path anyway); the residue — and every serial batch —
	// takes the ordered commit walk.
	se.bumpBatchEpoch()
	se.commitSc.arena = se.commitSc.arena[:0]
	first := 0
	if parallel {
		first = se.commitDisjoint(reqs, res)
	}
	se.commitOrdered(reqs, res, first)
	return res
}

// adapt sets sh's adaptive-prefilter state for its next batch from this
// batch's phase-A counters, which the fold zeroes right after (see
// PrefilterAuto for the rule).
func (se *ShardedEngine) adapt(sh *shard) {
	screened := int64(len(sh.idx)) - sh.endpointRejects
	if screened == 0 {
		return
	}
	engage := (sh.prefilterRejects+sh.probeRejects)*16 >= screened
	if engage == sh.engaged {
		return
	}
	if engage {
		se.stats.PrefilterEngages++
	} else {
		se.stats.PrefilterDisengages++
	}
	sh.engaged = engage
}

// commitOrdered is the ordered commit walk over requests [from, len(reqs)):
// the authoritative serial path every batch ends in. It validates each
// surviving speculative path against batchMark (which, on parallel
// batches, already includes the disjoint-committed prefix), claims through
// the ordered protocol, and falls back to a live re-probe on conflict —
// exactly the sequential Router's view at that request's turn.
func (se *ShardedEngine) commitOrdered(reqs []Request, res []Result, from int) {
	for i := from; i < len(reqs); i++ {
		rq := reqs[i]
		res[i] = Result{Request: rq}
		if f := se.flags[i]; f != flagNone {
			if f == flagRejected {
				res[i].Attempts = 1
			}
			continue
		}
		sp := se.spec[i]
		p := sp.path
		ok := p != nil
		if ok {
			// Fast-path validation: if the probe's trace is disjoint from
			// everything claimed this batch, the speculative search is
			// step-for-step what a live probe would do now, so the path is
			// exactly the sequential router's.
			for _, v := range sp.trace {
				if se.batchMark[v] == se.batchEpoch {
					ok = false
					break
				}
			}
		}
		if ok {
			se.claimOrdered(p)
			se.commit(rq, p, &res[i], 1)
			se.stats.FastPath++
			continue
		}
		// Conflict (or no speculative path survived): re-probe against the
		// live claim state — the sequential router's exact view at this
		// request's turn — and claim through the same protocol.
		if p != nil {
			se.stats.Conflicts++
		}
		q := se.probe(&se.commitSc, rq.In, rq.Out)
		if q == nil {
			res[i].Attempts = 2
			se.stats.CommitRejects++
			continue
		}
		se.claimOrdered(q)
		se.commit(rq, q, &res[i], 2)
		se.stats.Fallbacks++
	}
}

// commitDisjoint is the parallel commit fast path for batches that ran
// phase A on the workers. It finds the maximal prefix of requests the
// ordered walk would commit untouched and commits them with no ordering at
// all, returning the index the ordered walk must resume from.
//
// Correctness (why the prefix is EXACTLY what the sequential walk does,
// not a conservative guess):
//
//  1. A serial first-writer pass stamps every vertex of every surviving
//     speculative path with the smallest request index whose path covers
//     it (specOwner, epoch-scoped by specStamp).
//
//  2. A parallel sweep then marks request k valid iff it has a speculative
//     path and no vertex of its probe TRACE is owned by an earlier
//     request. Let k0 be the first flagNone request that is not valid; the
//     clean prefix is [0, k0).
//
//     Within the prefix the verdicts coincide with the ordered walk's
//     batchMark test: by induction, every flagNone request j < k < k0
//     fast-path commits its speculative path p_j, so the marks the ordered
//     walk would have accumulated at k's turn are exactly ∪_{j<k} p_j. If
//     trace_k meets some p_j (j < k), any vertex in the intersection has
//     specOwner ≤ j < k — first-writer-wins can only LOWER the owner — so
//     the sweep flags k invalid; conversely an owner j < k on a trace_k
//     vertex means that vertex lies on p_j, which the ordered walk would
//     have marked. Identical verdicts, so k0 is precisely the first
//     request the ordered walk would NOT fast-path, and the walk resumes
//     there against a batchMark state identical to the sequential one.
//
//  3. Prefix paths are pairwise vertex-disjoint (p_k ⊆ trace_k, so an
//     overlap with an earlier p_j would have invalidated k), hence their
//     claim stores commute and the commit needs no ordering: path copy,
//     batchMark stamps, claim stores, and result fills all touch disjoint
//     state per request. Everything order-sensitive — pooled path
//     allocation, circuit-registry install order, stats — runs in a short
//     serial prologue first.
//
// Rejected requests inside the prefix (flagRejected/flagRejectedEndpoint)
// commit nothing and only fill their own result slot, so they ride along
// in the parallel pass.
func (se *ShardedEngine) commitDisjoint(reqs []Request, res []Result) int {
	n := len(reqs)
	se.valid = growFlags(se.valid, n)
	se.commitDst = growDst(se.commitDst, n)
	epoch := se.batchEpoch

	// 1) First-writer ownership marking (serial, O(total path length)).
	for i := 0; i < n; i++ {
		if se.flags[i] != flagNone {
			continue
		}
		for _, v := range se.spec[i].path {
			if se.specStamp[v] != epoch {
				se.specStamp[v] = epoch
				se.specOwner[v] = uint32(i)
			}
		}
	}

	// 2) Parallel validation sweep (O(total trace length) across workers).
	se.fanOut(taskValidate, reqs, res, n)

	// 3) Maximal clean prefix.
	first := n
	for i := 0; i < n; i++ {
		if se.flags[i] == flagNone && se.valid[i] == 0 {
			first = i
			break
		}
	}

	// 4) Serial prologue: pooled destination slices, registry installs in
	// input order (the registry's iteration order is part of the
	// deterministic contract), stats.
	for i := 0; i < first; i++ {
		if se.flags[i] != flagNone {
			continue
		}
		p := se.newPath(len(se.spec[i].path))
		se.commitDst[i] = p
		se.circ.install(reqs[i].In, reqs[i].Out, p)
		se.stats.Accepted++
		se.stats.FastPath++
		se.stats.DisjointCommits++
	}

	// 5) Parallel commit of the prefix: copy, mark, claim, fill results.
	se.fanOut(taskCommit, reqs, res, first)
	return first
}

// validateRange is the parallel validation sweep over requests [lo,hi):
// valid[i] = 1 iff request i has a speculative path whose trace no earlier
// request's speculative path touches. Reads only state written before the
// fan-out (flags, spec, the ownership marks); writes only valid[lo:hi].
func (se *ShardedEngine) validateRange(lo, hi int) {
	epoch := se.batchEpoch
	for i := lo; i < hi; i++ {
		if se.flags[i] != flagNone {
			se.valid[i] = 0
			continue
		}
		sp := se.spec[i]
		ok := sp.path != nil
		if ok {
			for _, v := range sp.trace {
				if se.specStamp[v] == epoch && se.specOwner[v] < uint32(i) {
					ok = false
					break
				}
			}
		}
		if ok {
			se.valid[i] = 1
		} else {
			se.valid[i] = 0
		}
	}
}

// commitRange commits clean-prefix requests [lo,hi) with no ordering:
// every store targets state owned by exactly one request in the prefix
// (paths are pairwise disjoint, result slots are per-request), so ranges
// may run concurrently. The claim store asserts the vertex was idle — a
// violation means the validation proof is broken, and panicking beats
// corrupting the claim array.
//
//ftcsn:claimowner the disjoint-commit claim writer; disjointness is proven by validateRange before any store
func (se *ShardedEngine) commitRange(reqs []Request, res []Result, lo, hi int) {
	epoch := se.batchEpoch
	claims := se.claims
	for i := lo; i < hi; i++ {
		rq := reqs[i]
		res[i] = Result{Request: rq}
		switch se.flags[i] {
		case flagRejected:
			res[i].Attempts = 1
			continue
		case flagRejectedEndpoint:
			continue
		}
		dst := se.commitDst[i]
		copy(dst, se.spec[i].path)
		for _, v := range dst {
			se.batchMark[v] = epoch
			if claims[v].Load() != 0 {
				panic("route: disjoint commit claim conflicted; validation broken")
			}
			claims[v].Store(1)
		}
		res[i].Path = dst
		res[i].Attempts = 1
	}
}

// claimOrdered claims every vertex of a path that is known conflict-free
// (validated trace, or a path just probed against the live claim state).
// Commit is the only mutator of the claim array, so a plain atomic store
// suffices and failure is impossible — still fully visible to the
// lock-free phase-A readers of the next batch. The claims it writes are
// freed by release like every other claim.
//
//ftcsn:claimowner the ordered-commit claim writer; commit is the only claim mutator during a batch
func (se *ShardedEngine) claimOrdered(path []int32) {
	for _, v := range path {
		if se.claims[v].Load() != 0 {
			panic("route: ordered commit claim conflicted; trace validation broken")
		}
		se.claims[v].Store(1)
	}
}

// commit installs a freshly claimed path as a live circuit and fills the
// request's result.
func (se *ShardedEngine) commit(rq Request, p []int32, r *Result, attempts int) {
	path := se.newPath(len(p))
	copy(path, p)
	for _, v := range path {
		se.batchMark[v] = se.batchEpoch
	}
	se.circ.install(rq.In, rq.Out, path)
	r.Path = path
	r.Attempts = attempts
	se.stats.Accepted++
}

func (se *ShardedEngine) bumpBatchEpoch() {
	se.batchEpoch++
	if se.batchEpoch == 0 {
		clear(se.batchMark)
		clear(se.specStamp)
		se.batchEpoch = 1
	}
}

// speculate is phase A for one shard: screen endpoints, optionally run the
// word-parallel feasibility sweep (per the shard's own policy state), then
// probe the survivors against the snapshot, recording each probe's visit
// trace for commit validation.
func (sh *shard) speculate(se *ShardedEngine, reqs []Request) {
	sweep := se.Prefilter == PrefilterOn ||
		(se.Prefilter == PrefilterAuto && sh.engaged)
	live := sh.surv[:0]
	claims := se.claims
	for _, ri := range sh.idx {
		rq := reqs[ri]
		se.spec[ri] = specEntry{}
		if !se.usableVertex(rq.In) || !se.usableVertex(rq.Out) ||
			claims[rq.In].Load() != 0 || claims[rq.Out].Load() != 0 {
			se.flags[ri] = flagRejectedEndpoint
			sh.endpointRejects++
			continue
		}
		se.flags[ri] = flagNone
		live = append(live, ri)
	}
	if sweep && se.lv != nil && len(live) > 0 {
		if sh.fp == nil {
			sh.fp = newLanePass(se.g)
		}
		kept := live[:0]
		for base := 0; base < len(live); base += laneWidth {
			group := live[base:min(base+laneWidth, len(live))]
			feas := sh.fp.sweep(se, reqs, group)
			sh.sweeps++
			for l, ri := range group {
				if feas>>uint(l)&1 == 0 {
					se.flags[ri] = flagRejected
					sh.prefilterRejects++
					continue
				}
				kept = append(kept, ri)
			}
		}
		live = kept
	}
	for _, ri := range live {
		rq := reqs[ri]
		path, trace := se.probeRecorded(&sh.sc, rq.In, rq.Out)
		if path == nil {
			se.flags[ri] = flagRejected
			sh.probeRejects++
			continue
		}
		se.spec[ri] = specEntry{path: path, trace: trace}
	}
	sh.surv = live[:0]
}

// probe runs the same greedy depth-first idle-path hunt as Router.Connect,
// reading the claim array as the busy set and pruning descents the
// output-reachability guide proves hopeless (exact, so completeness is
// unchanged). The found path is appended to sc.arena; the returned view
// stays valid across arena growth. Returns nil when no idle path exists
// under the claim state read during the search.
func (se *ShardedEngine) probe(sc *probeScratch, in, out int32) []int32 {
	path, _ := se.probeInto(sc, in, out, false)
	return path
}

// probeRecorded is probe, additionally returning the trace of every vertex
// the search stamped (the path's vertices are among them). The commit phase
// uses the trace to prove a speculative search is untouched by later
// claims.
func (se *ShardedEngine) probeRecorded(sc *probeScratch, in, out int32) (path, trace []int32) {
	return se.probeInto(sc, in, out, true)
}

func (se *ShardedEngine) probeInto(sc *probeScratch, in, out int32, record bool) (path, trace []int32) {
	claims := se.claims
	if !se.usableVertex(in) || !se.usableVertex(out) ||
		claims[in].Load() != 0 || claims[out].Load() != 0 {
		return nil, nil
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.seenEpoch)
		sc.epoch = 1
	}
	start, _, heads := se.g.CSROut()
	allowed := se.allowed
	guide := se.reachOut
	groups := se.guideGroups
	var gslot int
	var gbit uint64
	if guide != nil {
		oi := se.outIdx[out]
		if oi < 0 {
			guide = nil
		} else {
			gslot = int(oi) >> 6
			gbit = 1 << (uint(oi) & 63)
		}
	}
	// Unguided probes keep the leveling's exact reachability cut (the same
	// prune as Router.Connect): a non-output vertex at level(out) or above
	// can never reach out. Guided probes skip it — the guide subsumes the
	// cut exactly (such a vertex's row cannot hold out's bit).
	var lvl []int32
	var outLvl int32
	if guide == nil && se.lv != nil {
		lvl = se.lv.PerVertex()
		outLvl = lvl[out]
	}
	seen, pred, epoch := sc.seenEpoch, sc.pred, sc.epoch
	seen[in] = epoch
	sc.stack = append(sc.stack[:0], in)
	// The recorded trace holds every vertex the search EXPANDED (popped and
	// slot-scanned), plus the endpoints. That set suffices for the commit
	// phase's step-identity argument: a vertex that was merely discovered
	// and stamped, but never popped before the path completed, influences
	// neither which vertices get expanded nor the predecessor chain of
	// the found path — a later claim on it leaves a live re-run of this
	// search identical. (A claim on a discovered-only vertex makes the
	// live search skip it at discovery; since it never reached the stack
	// top, the pop sequence and the found path are unchanged.)
	sc.rev = sc.rev[:0]
	found := false
	for len(sc.stack) > 0 && !found {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		if record {
			sc.rev = append(sc.rev, v)
		}
		for idx := start[v]; idx < start[v+1]; idx++ {
			w := heads[idx]
			c := allowed[idx]
			if !graph.SlotAdmits(c, w, out) {
				continue
			}
			if c == 0 && guide != nil && guide[int(w)*groups+gslot]&gbit == 0 {
				continue
			}
			if lvl != nil && w != out && lvl[w] >= outLvl {
				continue
			}
			if seen[w] == epoch || claims[w].Load() != 0 {
				continue
			}
			seen[w] = epoch
			pred[w] = v
			if w == out {
				found = true
				break
			}
			sc.stack = append(sc.stack, w)
		}
	}
	if !found {
		return nil, nil
	}
	if record {
		sc.rev = append(sc.rev, out)
	}
	// Lay out [path][trace] contiguously in the arena; both views stay
	// valid because later appends only write past them (or reallocate).
	// The stack is free after the search, so it holds the reversed path,
	// walked back through the predecessors the search just wrote rather
	// than through the edge-tail table, which on a large network costs one
	// serial cache miss per hop.
	sc.stack = sc.stack[:0]
	for v := out; ; {
		sc.stack = append(sc.stack, v)
		if v == in {
			break
		}
		v = pred[v]
	}
	base := len(sc.arena)
	for i := len(sc.stack) - 1; i >= 0; i-- {
		sc.arena = append(sc.arena, sc.stack[i])
	}
	path = sc.arena[base:len(sc.arena):len(sc.arena)]
	if record {
		tbase := len(sc.arena)
		sc.arena = append(sc.arena, sc.rev...)
		trace = sc.arena[tbase:len(sc.arena):len(sc.arena)]
	}
	return path, trace
}

// newPath returns an n-element pooled path slice.
func (se *ShardedEngine) newPath(n int) []int32 {
	for len(se.pathPool) > 0 {
		last := len(se.pathPool) - 1
		p := se.pathPool[last]
		se.pathPool = se.pathPool[:last]
		if cap(p) >= n {
			return p[:n]
		}
	}
	//ftlint:ignore hotpath pool-miss fallback: steady-state churn recycles retired paths, so this is first-use only
	return make([]int32, n)
}

func (se *ShardedEngine) retirePath(p []int32) {
	se.pathPool = append(se.pathPool, p)
}

// rebuildGuide recomputes the per-epoch output-reachability words from the
// current traversal bytes: one guideRow pass over vertices in reverse
// level order (graph.Levels; plain descending IDs on level-sorted graphs).
// O(E·span) word operations, where span is a row's static width.
func (se *ShardedEngine) rebuildGuide() {
	nOut := len(se.g.Outputs())
	groups := (nOut + 63) >> 6
	// se.allowed == nil means the masks were detached (an owner released
	// its arena-backed slices); there is nothing to derive a guide from.
	if se.lv == nil || nOut == 0 || groups > se.guideLimit || se.allowed == nil ||
		(groups > 1 && se.spans == nil) {
		se.reachOut = nil
		se.guideGroups = 0
		return
	}
	n := se.g.NumVertices()
	// Reused words need no clearing: guideRow rewrites every row over its
	// span, and the words outside a span are zero from the allocation on,
	// since no row ever writes them.
	if cap(se.reachOut) < n*groups {
		//ftlint:ignore hotpath first-build fallback: steady-state epochs reuse the guide's capacity
		se.reachOut = make([]uint64, n*groups)
	} else {
		se.reachOut = se.reachOut[:n*groups]
	}
	se.guideGroups = groups
	if cap(se.rowScratch) < groups {
		//ftlint:ignore hotpath first-build fallback: steady-state epochs reuse the row scratch's capacity
		se.rowScratch = make([]uint64, groups)
	}
	se.stats.GuideRebuilds++
	order := se.lv.Order()
	// Reverse level order: every successor (strictly higher level, hence a
	// later position) is finalized before v's row reads it.
	for p := int32(n) - 1; p >= 0; p-- {
		v := p
		if order != nil {
			v = order[p]
		}
		se.guideRow(v)
	}
}

// guideRow is the row kernel of both guide paths (rebuildGuide and
// MasksChangedDiff): it re-derives v's row from v's own output bit and its
// successors' current rows — OR-ing successor rows through open slots,
// with AdjTerminal slots contributing the head's output bit — stores it,
// and reports whether any word changed. Every successor's row must be
// final. One-word rows (≤64 outputs, where row v is word v) take a scalar
// body. Wider rows touch only the words of v's static span
// (graph.OutputSpans): a row's words outside its vertex's span are zero
// under every mask, and a successor's span nests inside v's, so reading
// each successor over v's span reads every bit it holds.
func (se *ShardedEngine) guideRow(v int32) bool {
	start, _, heads := se.g.CSROut()
	allowed, outIdx, guide := se.allowed, se.outIdx, se.reachOut
	se.stats.GuideRowsRecomputed++
	if se.guideGroups == 1 {
		se.stats.GuideWordsRecomputed++
		var word uint64
		if oi := outIdx[v]; oi >= 0 {
			word = 1 << (uint(oi) & 63)
		}
		for idx := start[v]; idx < start[v+1]; idx++ {
			if c := allowed[idx]; c == 0 {
				word |= guide[heads[idx]]
			} else if c == graph.AdjTerminal {
				if oi := outIdx[heads[idx]]; oi >= 0 {
					word |= 1 << (uint(oi) & 63)
				}
			}
		}
		if guide[v] == word {
			return false
		}
		guide[v] = word
		se.stats.GuideRowsChanged++
		return true
	}
	groups := se.guideGroups
	sp := se.spans[v]
	lo := int(sp.Lo)
	width := int(sp.Hi) - lo
	se.stats.GuideWordsRecomputed += int64(width)
	if width == 0 {
		return false
	}
	// Build into scratch so the old row survives for the change test.
	scratch := se.rowScratch[:width]
	clear(scratch)
	if oi := outIdx[v]; oi >= 0 {
		scratch[int(oi)>>6-lo] |= 1 << (uint(oi) & 63)
	}
	for idx := start[v]; idx < start[v+1]; idx++ {
		c := allowed[idx]
		w := heads[idx]
		if c == 0 {
			base := int(w)*groups + lo
			for k, x := range guide[base : base+width] {
				scratch[k] |= x
			}
		} else if c == graph.AdjTerminal {
			if oi := outIdx[w]; oi >= 0 {
				scratch[int(oi)>>6-lo] |= 1 << (uint(oi) & 63)
			}
		}
	}
	base := int(v)*groups + lo
	row := guide[base : base+width]
	for k, x := range scratch {
		if row[k] != x {
			copy(row, scratch)
			se.stats.GuideRowsChanged++
			return true
		}
	}
	return false
}

// VerifyState checks that the claim array is exactly the union of the
// committed circuits' vertices and that those circuits are vertex-disjoint
// paths the current masks admit: both endpoints usable, and every hop
// through a CSR slot whose traversal byte admits it toward the circuit's
// output (graph.SlotAdmits) — the engine's analogue of
// Router.VerifyInvariants. A mask edit that blocks a live circuit's hop
// therefore fails it until the circuit is released. Used by tests and the
// stress harness.
func (se *ShardedEngine) VerifyState() error {
	start, _, heads := se.g.CSROut()
	owner := make(map[int32]int32, len(se.circ.ins)*8)
	for _, in := range se.circ.ins {
		path := se.circ.path[in]
		out := se.circ.out[in]
		if len(path) < 2 || path[0] != in || path[len(path)-1] != out {
			return fmt.Errorf("route: malformed committed path for (%d,%d)", in, out)
		}
		if !se.usableVertex(in) || !se.usableVertex(out) {
			return fmt.Errorf("route: committed circuit (%d,%d) has an unusable endpoint", in, out)
		}
		for i, v := range path {
			if prev, dup := owner[v]; dup {
				return fmt.Errorf("route: vertex %d on circuits of inputs %d and %d", v, prev, in)
			}
			owner[v] = in
			if !se.claimed(v) {
				return fmt.Errorf("route: committed path vertex %d not claimed", v)
			}
			if i == 0 {
				continue
			}
			u, ok := path[i-1], false
			for idx := start[u]; idx < start[u+1] && !ok; idx++ {
				ok = heads[idx] == v && graph.SlotAdmits(se.allowed[idx], v, out)
			}
			if !ok {
				return fmt.Errorf("route: no admitting slot %d->%d on committed path to %d", u, v, out)
			}
		}
	}
	for v := 0; v < se.g.NumVertices(); v++ {
		if se.claimed(int32(v)) {
			if _, ok := owner[int32(v)]; !ok {
				return fmt.Errorf("route: vertex %d claimed but on no circuit", v)
			}
		}
	}
	return nil
}

// growSpec resizes without clearing: phase A overwrites every slot (the
// shard partition covers all request indices) before phase B reads any.
func growSpec(s []specEntry, n int) []specEntry {
	if cap(s) < n {
		//ftlint:ignore hotpath growth fallback on the first batch of a new high-water size; steady state reuses capacity
		return make([]specEntry, n)
	}
	return s[:n]
}

func growFlags(s []uint8, n int) []uint8 {
	if cap(s) < n {
		//ftlint:ignore hotpath growth fallback on the first batch of a new high-water size; steady state reuses capacity
		return make([]uint8, n)
	}
	return s[:n]
}

// growDst resizes the per-request destination-slice scratch without
// clearing: the commit prologue overwrites every slot the parallel pass
// reads.
func growDst(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		//ftlint:ignore hotpath growth fallback on the first batch of a new high-water size; steady state reuses capacity
		return make([][]int32, n)
	}
	return s[:n]
}
