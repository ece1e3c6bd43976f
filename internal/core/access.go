package core

import (
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
)

// Masks restricts traversal during access checks. Nil slices impose no
// restriction. VertexOK is the repair mask (discarded vertices are
// unusable); Busy marks vertices held by established circuits; EdgeOK
// marks switches that are normal with both endpoints usable.
//
// OutAllowed/InAllowed, when non-nil, are the CSR-slot-aligned traversal
// byte arrays for the same masks (graph.BuildOutAllowed/BuildInAllowed):
// slot i's AdjBlocked bit is set iff the edge in slot i is disallowed by
// EdgeOK or its far endpoint by VertexOK. They are maintained
// incrementally by MaskUpdater and let the access BFS test one
// sequentially-read byte per edge instead of two random mask lookups;
// they carry no Busy information, so the fast paths engage only when
// Busy is nil.
type Masks struct {
	VertexOK []bool
	EdgeOK   []bool
	Busy     []bool

	OutAllowed []uint8
	InAllowed  []uint8
}

func (m Masks) vertexAllowed(v int32) bool {
	//ftlint:ignore seamcontract audited: reference slow-path BFS accessor, kept to differentially test the traversal-byte fast path
	if m.VertexOK != nil && !m.VertexOK[v] {
		return false
	}
	if m.Busy != nil && m.Busy[v] {
		return false
	}
	return true
}

func (m Masks) edgeAllowed(e int32) bool {
	//ftlint:ignore seamcontract audited: reference slow-path BFS accessor, kept to differentially test the traversal-byte fast path
	return m.EdgeOK == nil || m.EdgeOK[e]
}

// RepairMasks derives the traversal masks of the repaired network from a
// fault instance, per the paper's discard rule.
func RepairMasks(inst *fault.Instance) Masks {
	var m Masks
	RepairMasksInto(inst, &m)
	return m
}

// RepairMasksInto is RepairMasks writing into m's existing slices (grown on
// first use), so per-trial mask derivation allocates nothing in steady
// state. m.Busy is left untouched. The combined traversal arrays are
// dropped (they no longer match the rebuilt masks); use MaskUpdater to
// keep them current across trials instead.
func RepairMasksInto(inst *fault.Instance, m *Masks) {
	m.VertexOK = inst.RepairInto(m.VertexOK)
	m.EdgeOK = growBools(m.EdgeOK, inst.G.NumEdges())
	for e := range m.EdgeOK {
		m.EdgeOK[e] = inst.RepairedEdgeUsable(m.VertexOK, int32(e))
	}
	m.OutAllowed, m.InAllowed = nil, nil
}

// AccessChecker performs the access computations of Lemmas 3 and 6:
// counting how many vertices of a target stage an idle terminal can reach
// through idle usable vertices. It owns epoch-stamped scratch so repeated
// checks over one network allocate nothing.
//
// "Stage" comparisons run on the graph's topological levels
// (graph.Levels): for 𝒩 and every staged MIN the level assignment IS the
// stage assignment, so nothing changes there, while wrapped networks
// (WrapGraph) get the same checks over their level structure.
type AccessChecker struct {
	nw    *Network
	level []int32 // per-vertex topological level (== stage for 𝒩)
	seen  []uint32
	epoch uint32
	queue []int32

	// batch is the word-parallel whole-network certifier, created lazily on
	// the first MajorityAccessInto call that can use it, so per-terminal
	// users (grid access counts, busy-aware checks) never pay for its rows.
	batch *BatchAccessChecker
}

// NewAccessChecker returns a checker for nw.
func NewAccessChecker(nw *Network) *AccessChecker {
	return &AccessChecker{
		nw:    nw,
		level: networkLevels(nw),
		seen:  make([]uint32, nw.G.NumVertices()),
		queue: make([]int32, 0, 1024),
	}
}

// networkLevels returns the per-vertex level array the access checks
// compare against. Every Network's graph is acyclic (𝒩 by construction,
// wrapped graphs by WrapGraph's check); the stage-array fallback only
// guards hand-built test networks with cyclic graphs, where the BFS then
// behaves as it historically did on stages.
func networkLevels(nw *Network) []int32 {
	if lv, err := nw.G.Levels(); err == nil {
		return lv.PerVertex()
	}
	return nw.G.Stages()
}

func (ac *AccessChecker) bump() {
	ac.epoch++
	if ac.epoch == 0 {
		for i := range ac.seen {
			ac.seen[i] = 0
		}
		ac.epoch = 1
	}
}

// CountForward returns the number of vertices on targetStage reachable
// from src along forward switches through vertices allowed by m. src
// itself must be allowed by the caller's convention (it is visited
// unconditionally).
func (ac *AccessChecker) CountForward(src int32, targetStage int, m Masks) int {
	if m.OutAllowed != nil && m.Busy == nil {
		return ac.countForwardFast(src, targetStage, m.OutAllowed)
	}
	g := ac.nw.G
	target := int32(targetStage)
	ac.bump()
	ac.seen[src] = ac.epoch
	ac.queue = ac.queue[:0]
	ac.queue = append(ac.queue, src)
	count := 0
	if ac.level[src] == target {
		count++
	}
	for head := 0; head < len(ac.queue); head++ {
		v := ac.queue[head]
		if ac.level[v] >= target {
			continue
		}
		for _, e := range g.OutEdges(v) {
			if !m.edgeAllowed(e) {
				continue
			}
			w := g.EdgeTo(e)
			if ac.seen[w] == ac.epoch || !m.vertexAllowed(w) {
				continue
			}
			ac.seen[w] = ac.epoch
			if ac.level[w] == target {
				count++
			}
			ac.queue = append(ac.queue, w)
		}
	}
	return count
}

// countForwardFast is CountForward reading the combined traversal bytes —
// one sequential byte per CSR slot in place of the edge- and vertex-mask
// lookups (the AdjTerminal bit is ignored: terminals are ordinary vertices
// to access counting). Visit order, and therefore the count, is identical
// to the generic loop.
func (ac *AccessChecker) countForwardFast(src int32, targetStage int, allowed []uint8) int {
	g := ac.nw.G
	start, _, heads := g.CSROut()
	level := ac.level
	target := int32(targetStage)
	ac.bump()
	seen, epoch := ac.seen, ac.epoch
	seen[src] = epoch
	ac.queue = ac.queue[:0]
	ac.queue = append(ac.queue, src)
	count := 0
	if level[src] == target {
		count++
	}
	for head := 0; head < len(ac.queue); head++ {
		v := ac.queue[head]
		if level[v] >= target {
			continue
		}
		for idx := start[v]; idx < start[v+1]; idx++ {
			if allowed[idx]&graph.AdjBlocked != 0 {
				continue
			}
			w := heads[idx]
			if seen[w] == epoch {
				continue
			}
			seen[w] = epoch
			if level[w] == target {
				count++
			}
			ac.queue = append(ac.queue, w)
		}
	}
	return count
}

// CountBackward is CountForward on reversed switches, used for the mirror
// half (Corollary 2): how many targetStage vertices can reach dst.
func (ac *AccessChecker) CountBackward(dst int32, targetStage int, m Masks) int {
	if m.InAllowed != nil && m.Busy == nil {
		return ac.countBackwardFast(dst, targetStage, m.InAllowed)
	}
	g := ac.nw.G
	target := int32(targetStage)
	ac.bump()
	ac.seen[dst] = ac.epoch
	ac.queue = ac.queue[:0]
	ac.queue = append(ac.queue, dst)
	count := 0
	if ac.level[dst] == target {
		count++
	}
	for head := 0; head < len(ac.queue); head++ {
		v := ac.queue[head]
		if ac.level[v] <= target {
			continue
		}
		for _, e := range g.InEdges(v) {
			if !m.edgeAllowed(e) {
				continue
			}
			w := g.EdgeFrom(e)
			if ac.seen[w] == ac.epoch || !m.vertexAllowed(w) {
				continue
			}
			ac.seen[w] = ac.epoch
			if ac.level[w] == target {
				count++
			}
			ac.queue = append(ac.queue, w)
		}
	}
	return count
}

// countBackwardFast is countForwardFast on the reverse CSR.
func (ac *AccessChecker) countBackwardFast(dst int32, targetStage int, allowed []uint8) int {
	g := ac.nw.G
	start, _, tails := g.CSRIn()
	level := ac.level
	target := int32(targetStage)
	ac.bump()
	seen, epoch := ac.seen, ac.epoch
	seen[dst] = epoch
	ac.queue = ac.queue[:0]
	ac.queue = append(ac.queue, dst)
	count := 0
	if level[dst] == target {
		count++
	}
	for head := 0; head < len(ac.queue); head++ {
		v := ac.queue[head]
		if level[v] <= target {
			continue
		}
		for idx := start[v]; idx < start[v+1]; idx++ {
			if allowed[idx]&graph.AdjBlocked != 0 {
				continue
			}
			w := tails[idx]
			if seen[w] == epoch {
				continue
			}
			seen[w] = epoch
			if level[w] == target {
				count++
			}
			ac.queue = append(ac.queue, w)
		}
	}
	return count
}

// GridAccessCount implements Lemma 3's measurement: the number of rows of
// the input's directed grid Φ_i, at the grid's last stage (stage ν), that
// the input can reach through allowed vertices. Since grids are disjoint
// before stage ν, a plain forward count to stage ν is exactly this.
func (ac *AccessChecker) GridAccessCount(inputIdx int, m Masks) int {
	in := ac.nw.Inputs()[inputIdx]
	return ac.CountForward(in, ac.nw.P.Nu, m)
}

// MajorityReport aggregates a Lemma-6 check over all terminals.
type MajorityReport struct {
	// MiddleSize is the number of vertices on stage 2ν; majority means
	// strictly more than MiddleSize/2.
	MiddleSize int
	// InputAccess[i] is the number of middle-stage vertices input i
	// reaches; OutputAccess[j] likewise backwards from output j. Busy
	// terminals are recorded as -1 (exempt).
	InputAccess  []int
	OutputAccess []int
	// OK reports whether every idle terminal has strict-majority access on
	// its side — the paper's majority-access property for 𝒩 and its
	// mirror, which together imply the repaired network contains a
	// strictly nonblocking n-network (§6, observation after Lemma 6).
	OK bool
}

// MajorityAccess runs the Lemma-6 / Corollary-2 check for every idle input
// and output under the given masks.
func (nw *Network) MajorityAccess(ac *AccessChecker, m Masks) MajorityReport {
	var rep MajorityReport
	nw.MajorityAccessInto(ac, m, &rep)
	return rep
}

// MajorityAccessInto is MajorityAccess writing into rep, reusing its access
// slices across calls so repeated certification allocates nothing.
//
// When the masks carry the CSR-slot traversal bytes and no Busy
// information — the batched-trial steady state, where MaskUpdater keeps
// OutAllowed/InAllowed current — the check runs on the word-parallel
// BatchAccessChecker: all terminals certified in O(E·n/64) word operations
// instead of 2n BFS sweeps, with bit-identical reports (see the
// differential harness). Busy-aware or byte-less masks fall back to the
// per-terminal BFS below.
func (nw *Network) MajorityAccessInto(ac *AccessChecker, m Masks, rep *MajorityReport) {
	if m.Busy == nil && m.OutAllowed != nil && m.InAllowed != nil {
		if ac.batch == nil {
			ac.batch = NewBatchAccessChecker(nw)
		}
		if ac.batch.MajorityAccessInto(m, rep) {
			return
		}
	}
	nw.majorityAccessBFS(ac, m, rep)
}

// majorityAccessBFS is the per-terminal reference path: one CountForward /
// CountBackward BFS per terminal, with busy terminals exempted as -1.
func (nw *Network) majorityAccessBFS(ac *AccessChecker, m Masks, rep *MajorityReport) {
	mid := nw.MiddleStage
	rep.MiddleSize = int(nw.StageSize[mid])
	rep.InputAccess = growInts(rep.InputAccess, len(nw.Inputs()))
	rep.OutputAccess = growInts(rep.OutputAccess, len(nw.Outputs()))
	rep.OK = true
	need := rep.MiddleSize/2 + 1
	for i, in := range nw.Inputs() {
		if m.Busy != nil && m.Busy[in] {
			rep.InputAccess[i] = -1
			continue
		}
		c := ac.CountForward(in, mid, m)
		rep.InputAccess[i] = c
		if c < need {
			rep.OK = false
		}
	}
	for j, out := range nw.Outputs() {
		if m.Busy != nil && m.Busy[out] {
			rep.OutputAccess[j] = -1
			continue
		}
		c := ac.CountBackward(out, mid, m)
		rep.OutputAccess[j] = c
		if c < need {
			rep.OK = false
		}
	}
}

// growInts resizes s to n elements, reusing capacity when possible.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		//ftlint:ignore hotpath growth fallback on first use; steady-state trials reuse the capacity
		return make([]int, n)
	}
	return s[:n]
}

// growBools is growInts for []bool; the contents are unspecified and must
// be overwritten by the caller.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
