package route

// ShardedEngine is the guided production engine. ConnectBatch serves a
// batch strictly in input order, one request at a time: screen the
// endpoints, run Router.Connect's greedy depth-first hunt against the live
// owner array, and claim the found path. The hunt is the Router's plus
// one exact cut — a descent the per-epoch output-reachability guide
// proves cannot reach the requested output is skipped — so every decision
// and path is the sequential Router's on the same stream. The differential
// tests in sharded_test.go, prune_test.go and the core and netsim grids
// lock this down.

import (
	"fmt"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
)

// ShardedStats counts, cumulatively, how batches were served and how the
// routing guide was maintained. Every request ends in exactly one of
// Accepted, EndpointRejects or ProbeRejects.
type ShardedStats struct {
	Batches, Requests, Accepted int64

	// FastPath counts accepts: each one commits the path of its only
	// probe, so it always equals Accepted.
	FastPath int64

	// EndpointRejects counts requests refused before any probe: In is not
	// an input terminal or Out not an output terminal, or an endpoint is
	// unusable or busy. ProbeRejects counts probed requests with no idle
	// path.
	EndpointRejects, ProbeRejects int64

	// Fallbacks, PrefilterSweeps and PrefilterRejects are never written.
	// They are kept only because e2ebench reads them for its
	// fallbacks_per_batch and prefilter per-layer keys, until a benchmark
	// change retires those keys.
	Fallbacks, PrefilterSweeps, PrefilterRejects int64

	// Guide maintenance: full rebuilds (construction, mask swaps, budget
	// changes, MasksChanged, and MasksChangedDiff's cutover to a rebuild)
	// and incremental MasksChangedDiff refreshes; then, over both, the rows
	// the row kernel recomputed, those whose words changed, and the lane
	// words it recomputed (one per row at ≤64 outputs, else the width of
	// the row's static span).
	GuideRebuilds, GuideRefreshes                               int64
	GuideRowsRecomputed, GuideRowsChanged, GuideWordsRecomputed int64
}

// ShardedEngine routes batches of connection requests with
// sequential-router semantics, pruned by an output-reachability guide.
// See the comment at the top of this file. The zero value is not usable;
// construct with NewShardedEngine or NewRepairedShardedEngine. An engine
// is not safe for concurrent use.
type ShardedEngine struct {
	g *graph.Graph

	// owner maps each vertex to the input terminal whose circuit holds it,
	// -1 when free. Only the //ftcsn:claimowner helpers write it. allowed
	// is the CSR-slot-aligned traversal byte array the hunt reads — one
	// sequentially-read byte per slot in place of the usable-switch,
	// usable-head and terminal-head lookups, exactly as the sequential
	// Router does — either built from the masks at construction
	// (graph.BuildOutAllowed, the single source of truth for the discard
	// rule's traversal semantics) or adopted from a caller that maintains
	// it incrementally (SetMasksShared). vertexOK gates endpoint admission
	// only (nil = every vertex usable).
	owner    []int32
	allowed  []uint8
	vertexOK []bool

	// Depth-first hunt scratch: epoch-stamped visited marks, each
	// discovered vertex's predecessor (the vertex whose slot discovered
	// it, from which the found path is rebuilt), and the stack.
	seenEpoch []uint32
	epoch     uint32
	pred      []int32
	stack     []int32

	// committed circuits: the per-input registry (one live circuit per
	// input terminal — an input is claimed while connected, so a second
	// circuit cannot coexist).
	circ circuits

	pathPool [][]int32

	// Word-parallel routing guide, rebuilt per mask epoch: reachOut holds
	// guideGroups lane words per vertex, bit (outIdx&63) of word
	// (outIdx>>6) set iff an allowed-slot path leads from the vertex to
	// that output, ignoring busy state; a row's words outside its
	// vertex's static span are zero under every mask. The hunt prunes
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
	// contract behind the guide rebuild and the unguided hunt's level cut.
	// nil only for cyclic graphs: the hunt still runs (DFS needs no
	// leveling), but the guide stays off.
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

// NewShardedEngine returns an engine over the fault-free network g. It
// panics unless shards == 1: the engine serves every batch in order on the
// caller's goroutine, and a larger count would buy nothing, so a caller
// still asking for one is stale.
func NewShardedEngine(g *graph.Graph, shards int) *ShardedEngine {
	return newShardedEngine(g, nil, g.BuildOutAllowed(nil, nil, nil), shards)
}

// NewRepairedShardedEngine returns an engine over the network repaired from
// inst by the paper's discard rule. Panics unless shards == 1 (see
// NewShardedEngine).
func NewRepairedShardedEngine(inst *fault.Instance, shards int) *ShardedEngine {
	usable := inst.Repair()
	edgeOK := inst.RepairedEdgesInto(usable, nil)
	return newShardedEngine(inst.G, usable, inst.G.BuildOutAllowed(edgeOK, usable, nil), shards)
}

func newShardedEngine(g *graph.Graph, vertexOK []bool, allowed []uint8, shards int) *ShardedEngine {
	if shards != 1 {
		panic(fmt.Sprintf("route: shard count must be 1, got %d", shards))
	}
	n := g.NumVertices()
	se := &ShardedEngine{
		g:         g,
		owner:     make([]int32, n),
		allowed:   allowed,
		vertexOK:  vertexOK,
		seenEpoch: make([]uint32, n),
		pred:      make([]int32, n),
		stack:     make([]int32, 0, 256),
		outIdx:    make([]int32, n),
	}
	se.freeAll()
	se.circ.init(n)
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

// ShardedStats returns the cumulative engine-specific serving counters
// (reject breakdown, guide maintenance).
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

// ConnectBatch routes reqs in input order with sequential-router
// semantics, reusing res (grown as needed) and returning per-request
// results in input order. Result.Path is pooled: valid until that circuit
// is disconnected.
func (se *ShardedEngine) ConnectBatch(reqs []Request, res []Result) []Result {
	res = growResults(res, len(reqs))
	se.stats.Batches++
	se.stats.Requests += int64(len(reqs))
	for i, rq := range reqs {
		res[i] = Result{Request: rq}
		if !se.endpointsFree(rq.In, rq.Out) {
			se.stats.EndpointRejects++
			continue
		}
		path := se.hunt(rq.In, rq.Out)
		if path == nil {
			se.stats.ProbeRejects++
			continue
		}
		se.claim(path)
		se.circ.install(rq.In, rq.Out, path)
		res[i].Path = path
		se.stats.Accepted++
		se.stats.FastPath++
	}
	return res
}

// endpointsFree reports whether in is an input terminal and out an output
// terminal, both usable and idle. The terminal check runs first, so an ID
// outside the graph is refused before it indexes anything else.
func (se *ShardedEngine) endpointsFree(in, out int32) bool {
	return se.g.IsInput(in) && se.g.IsOutput(out) &&
		se.usableVertex(in) && se.usableVertex(out) &&
		se.owner[in] < 0 && se.owner[out] < 0
}

// hunt runs Router.Connect's greedy depth-first idle-path hunt from in to
// out, reading the owner array as the busy set and pruning descents the
// output-reachability guide proves hopeless (exact, so completeness is
// unchanged). On success it returns the path (in … out) in a pooled slice,
// built once by walking the predecessors back from out; nil when no idle
// path exists. The caller has screened both endpoints.
func (se *ShardedEngine) hunt(in, out int32) []int32 {
	se.epoch++
	if se.epoch == 0 {
		clear(se.seenEpoch)
		se.epoch = 1
	}
	start, _, heads := se.g.CSROut()
	allowed, owner := se.allowed, se.owner
	guide := se.reachOut
	groups := se.guideGroups
	var gslot int
	var gbit uint64
	if guide != nil {
		oi := se.outIdx[out]
		gslot = int(oi) >> 6
		gbit = 1 << (uint(oi) & 63)
	}
	// Unguided hunts keep the leveling's exact reachability cut (the same
	// prune as Router.Connect): a non-output vertex at level(out) or above
	// can never reach out. Guided hunts skip it — the guide subsumes the
	// cut exactly (such a vertex's row cannot hold out's bit).
	var lvl []int32
	var outLvl int32
	if guide == nil && se.lv != nil {
		lvl = se.lv.PerVertex()
		outLvl = lvl[out]
	}
	seen, pred, epoch := se.seenEpoch, se.pred, se.epoch
	seen[in] = epoch
	se.stack = append(se.stack[:0], in)
	stack := se.stack
	found := false
	for len(stack) > 0 && !found {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
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
			if seen[w] == epoch || owner[w] >= 0 {
				continue
			}
			seen[w] = epoch
			pred[w] = v
			if w == out {
				found = true
				break
			}
			stack = append(stack, w)
		}
	}
	se.stack = stack
	if !found {
		return nil
	}
	// The predecessors the search just wrote are hot; walking them twice
	// (once to size the pooled slice, once to fill it back to front) needs
	// no reversal buffer and never touches the edge-tail table.
	n := 1
	for v := out; v != in; v = pred[v] {
		n++
	}
	path := se.newPath(n)
	v := out
	for i := n - 1; i > 0; i-- {
		path[i] = v
		v = pred[v]
	}
	path[0] = in
	return path
}

// claim hands every vertex of a freshly hunted path to its input.
//
//ftcsn:claimowner the claim half of the owner protocol; the hunt proved every vertex idle
func (se *ShardedEngine) claim(path []int32) {
	in := path[0]
	for _, v := range path {
		se.owner[v] = in
	}
}

// release frees the vertices of a committed path.
//
//ftcsn:claimowner the release half of the owner protocol
func (se *ShardedEngine) release(path []int32) {
	for _, v := range path {
		se.owner[v] = -1
	}
}

// freeAll marks every vertex free.
//
//ftcsn:claimowner construction and mask swaps invalidate every claim at once
func (se *ShardedEngine) freeAll() {
	for v := range se.owner {
		se.owner[v] = -1
	}
}

// MasksChanged rebuilds the output-reachability guide from the adopted
// traversal bytes without touching claims or circuits — the call an
// in-place mask maintainer (core.MaskUpdater) makes after editing the
// shared bytes between batches: the hunt reads the bytes live, but a
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
// called between batches.
func (se *ShardedEngine) MasksChangedDiff(vertices, edges []int32) {
	if se.reachOut == nil {
		// No guide is derived from the bytes (unleveled graph or too many
		// outputs); the hunt reads the bytes live.
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

// PathOf returns the committed path for (in, out), or nil. The slice is
// pooled: valid only until the circuit is disconnected.
func (se *ShardedEngine) PathOf(in, out int32) []int32 {
	return se.circ.lookup(in, out)
}

// ActiveCircuits returns the number of committed circuits.
func (se *ShardedEngine) ActiveCircuits() int { return len(se.circ.ins) }

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
	for _, in := range se.circ.ins {
		se.retirePath(se.circ.path[in])
	}
	se.circ.reset()
	se.vertexOK = vertexOK
	se.allowed = outAllowed
	se.freeAll()
	se.rebuildGuide()
}

// usableVertex reports whether v survived repair (endpoint admission).
func (se *ShardedEngine) usableVertex(v int32) bool {
	//ftlint:ignore seamcontract audited endpoint-admission accessor: vertexOK gates terminals only; per-edge admission stays in the traversal bytes
	return se.vertexOK == nil || se.vertexOK[v]
}

// Reset releases every committed circuit, keeping buffers and masks.
func (se *ShardedEngine) Reset() {
	for _, in := range se.circ.ins {
		path := se.circ.path[in]
		se.release(path)
		se.retirePath(path)
	}
	se.circ.reset()
}

// Disconnect releases the committed circuit between in and out, or
// returns ErrNoCircuit.
func (se *ShardedEngine) Disconnect(in, out int32) error {
	path, ok := se.circ.remove(in, out)
	if !ok {
		return ErrNoCircuit
	}
	se.release(path)
	se.retirePath(path)
	return nil
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

// guideWidth returns the lane words per vertex the guide takes under the
// current masks and budget, or 0 when the guide is off: no leveling, no
// outputs, a width over the budget, or rows wider than a word on a graph
// without static spans.
func (se *ShardedEngine) guideWidth() int {
	nOut := len(se.g.Outputs())
	groups := (nOut + 63) >> 6
	if se.lv == nil || nOut == 0 || groups > se.guideLimit || (groups > 1 && se.spans == nil) {
		return 0
	}
	return groups
}

// rebuildGuide recomputes the per-epoch output-reachability words from the
// current traversal bytes: one guideRow pass over vertices in reverse
// level order (graph.Levels; plain descending IDs on level-sorted graphs).
// O(E·span) word operations, where span is a row's static width.
func (se *ShardedEngine) rebuildGuide() {
	groups := se.guideWidth()
	if groups == 0 {
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

// VerifyState checks the engine's whole state against its definition,
// the engine's analogue of Router.VerifyInvariants, for tests, the stress
// harnesses and ftroute:
//
//   - the committed circuits are vertex-disjoint paths from an input
//     terminal to an output terminal that the current masks admit: both
//     endpoints usable, and every hop through a CSR slot whose traversal
//     byte admits it toward the circuit's output (graph.SlotAdmits), so a
//     mask edit that blocks a live circuit's hop fails it until the
//     circuit is released;
//   - owner[v] is the circuit's input on every path vertex, and -1
//     everywhere else;
//   - the guide equals a rebuild from the current traversal bytes, so
//     bytes edited in place without MasksChanged or MasksChangedDiff fail
//     it.
//
// It changes nothing in the engine: the reference guide is built into
// scratch, independently of the row kernel and the spans.
func (se *ShardedEngine) VerifyState() error {
	start, _, heads := se.g.CSROut()
	onPath := make([]int32, se.g.NumVertices())
	for v := range onPath {
		onPath[v] = -1
	}
	for _, in := range se.circ.ins {
		path := se.circ.path[in]
		out := se.circ.out[in]
		if len(path) < 2 || path[0] != in || path[len(path)-1] != out || !se.g.IsInput(in) || !se.g.IsOutput(out) {
			return fmt.Errorf("route: malformed committed path for (%d,%d)", in, out)
		}
		if !se.usableVertex(in) || !se.usableVertex(out) {
			return fmt.Errorf("route: committed circuit (%d,%d) has an unusable endpoint", in, out)
		}
		for i, v := range path {
			if prev := onPath[v]; prev >= 0 {
				return fmt.Errorf("route: vertex %d on circuits of inputs %d and %d", v, prev, in)
			}
			onPath[v] = in
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
	for v, in := range onPath {
		if se.owner[v] != in {
			return fmt.Errorf("route: vertex %d owned by %d, but its circuit's input is %d", v, se.owner[v], in)
		}
	}
	return se.verifyGuide()
}

// verifyGuide rebuilds the guide at full row width into scratch and
// compares it with the engine's word for word.
func (se *ShardedEngine) verifyGuide() error {
	groups := se.guideWidth()
	if groups != se.guideGroups || (groups == 0) != (se.reachOut == nil) {
		return fmt.Errorf("route: guide is %d words wide, a rebuild gives %d", se.guideGroups, groups)
	}
	if groups == 0 {
		return nil
	}
	n := se.g.NumVertices()
	ref := make([]uint64, n*groups)
	start, _, heads := se.g.CSROut()
	setOut := func(row []uint64, v int32) {
		if oi := se.outIdx[v]; oi >= 0 {
			row[oi>>6] |= 1 << (uint(oi) & 63)
		}
	}
	order := se.lv.Order()
	for p := n - 1; p >= 0; p-- {
		v := int32(p)
		if order != nil {
			v = order[p]
		}
		row := ref[int(v)*groups : int(v+1)*groups]
		setOut(row, v)
		for idx := start[v]; idx < start[v+1]; idx++ {
			w := heads[idx]
			switch se.allowed[idx] {
			case 0:
				for k, x := range ref[int(w)*groups : int(w+1)*groups] {
					row[k] |= x
				}
			case graph.AdjTerminal:
				setOut(row, w)
			}
		}
	}
	for i, x := range ref {
		if se.reachOut[i] != x {
			return fmt.Errorf("route: guide word %d of vertex %d is %#x, a rebuild gives %#x",
				i%groups, i/groups, se.reachOut[i], x)
		}
	}
	return nil
}
