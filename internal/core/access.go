package core

import (
	"fmt"
	"math/bits"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
)

// Masks restricts traversal through a repaired network. VertexOK is the
// repair mask (discarded vertices are unusable); EdgeOK marks switches
// that are normal with both endpoints usable. A nil VertexOK or EdgeOK
// imposes no restriction.
//
// OutAllowed/InAllowed are the CSR-slot-aligned traversal byte arrays for
// the same masks (graph.BuildOutAllowed/BuildInAllowed): slot i's
// AdjBlocked bit is set iff the edge in slot i is disallowed by EdgeOK or
// its far endpoint by VertexOK. The majority-access certificate reads only
// these bytes. RepairMasksInto builds them and MaskUpdater keeps them
// current across trials; masks assembled any other way must build them
// too.
type Masks struct {
	VertexOK []bool
	EdgeOK   []bool

	OutAllowed []uint8
	InAllowed  []uint8
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
// state. Every call rescans all O(E) switches and rebuilds the traversal
// bytes; use MaskUpdater to keep the masks current across trials by diffs
// instead.
func RepairMasksInto(inst *fault.Instance, m *Masks) {
	g := inst.G
	m.VertexOK = inst.RepairInto(m.VertexOK)
	m.EdgeOK = growBools(m.EdgeOK, g.NumEdges())
	for e := range m.EdgeOK {
		m.EdgeOK[e] = inst.RepairedEdgeUsable(m.VertexOK, int32(e))
	}
	m.OutAllowed = g.BuildOutAllowed(m.EdgeOK, m.VertexOK, m.OutAllowed)
	m.InAllowed = g.BuildInAllowed(m.EdgeOK, m.VertexOK, m.InAllowed)
}

// AccessChecker performs the access computations of Lemma 6 and Corollary
// 2 for every terminal at once: how many middle-stage vertices each input
// reaches along allowed forward slots, and each output along allowed
// reverse slots.
//
// It is the classic batched-reachability trick. Every vertex owns one
// 64-bit lane word in which bit l means "source l of the current strip
// reaches this vertex". Sources are processed in strips of up to 64
// lanes: a strip seeds source l's bit at its terminal, then one pass over
// vertices in topological-level order (graph.Levels) ORs each vertex's
// word into the heads of its OutAllowed-permitted CSR slots — propagating
// 64 single-source reachability frontiers per machine word operation. At
// the middle stage the per-lane column populations are the access counts.
// The output side is the mirror image on the reverse CSR under InAllowed.
// Total cost is O(E·n/64) word operations.
//
// "Stage" means topological level. For 𝒩 and every staged MIN the level
// assignment IS the stage assignment and vertex IDs are level-sorted, so
// the pass is a plain-ID sweep; wrapped graphs whose IDs are not
// level-sorted (Mirror images, hammock substitutions, superconcentrators,
// hyperx and circulant unrollings) walk the cached level-sorted
// permutation instead. Every Network has a leveling: Build stages its
// graph and WrapGraph rejects cyclic ones. The lane words are allocated
// once, so repeated checks over one network allocate nothing.
type AccessChecker struct {
	nw    *Network
	lv    *graph.Levels
	words []uint64 // one lane word per vertex
	// lanes is the strip width in sources (≤ 64). It exists so tests can
	// exercise multi-strip scheduling and partial strips on small networks;
	// production use keeps the full word.
	lanes int
}

// NewAccessChecker returns a checker for nw. It panics if nw's graph has
// no topological leveling, which no Build or WrapGraph network lacks.
func NewAccessChecker(nw *Network) *AccessChecker {
	lv, err := nw.G.Levels()
	if err != nil {
		panic(fmt.Sprintf("core: NewAccessChecker: %v", err))
	}
	return &AccessChecker{
		nw:    nw,
		lv:    lv,
		words: make([]uint64, nw.G.NumVertices()),
		lanes: 64,
	}
}

// MajorityReport aggregates a Lemma-6 check over all terminals.
type MajorityReport struct {
	// MiddleSize is the number of vertices on stage 2ν; majority means
	// strictly more than MiddleSize/2.
	MiddleSize int
	// InputAccess[i] is the number of middle-stage vertices input i
	// reaches; OutputAccess[j] likewise backwards from output j.
	InputAccess  []int
	OutputAccess []int
	// OK reports whether every terminal has strict-majority access on its
	// side — the paper's majority-access property for 𝒩 and its mirror,
	// which together imply the repaired network contains a strictly
	// nonblocking n-network (§6, observation after Lemma 6).
	OK bool
}

// MajorityAccess runs the Lemma-6 / Corollary-2 check for every input and
// output under the given masks.
func (nw *Network) MajorityAccess(ac *AccessChecker, m Masks) MajorityReport {
	var rep MajorityReport
	nw.MajorityAccessInto(ac, m, &rep)
	return rep
}

// MajorityAccessInto is MajorityAccess writing into rep, reusing its access
// slices across calls so repeated certification allocates nothing. m must
// carry the traversal bytes (OutAllowed/InAllowed, as RepairMasksInto and
// MaskUpdater build them): the check reads nothing else, and it panics on
// masks without them.
func (nw *Network) MajorityAccessInto(ac *AccessChecker, m Masks, rep *MajorityReport) {
	if nE := nw.G.NumEdges(); len(m.OutAllowed) != nE || len(m.InAllowed) != nE {
		panic("core: MajorityAccessInto: masks lack this network's traversal bytes; build them with RepairMasksInto or MaskUpdater")
	}
	mid := nw.MiddleStage
	rep.MiddleSize = int(nw.StageSize[mid])
	rep.InputAccess = growInts(rep.InputAccess, len(nw.Inputs()))
	rep.OutputAccess = growInts(rep.OutputAccess, len(nw.Outputs()))
	ac.countForward(nw.Inputs(), mid, m.OutAllowed, rep.InputAccess)
	ac.countBackward(nw.Outputs(), mid, m.InAllowed, rep.OutputAccess)
	need := rep.MiddleSize/2 + 1
	rep.OK = true
	for _, c := range rep.InputAccess {
		if c < need {
			rep.OK = false
			break
		}
	}
	if rep.OK {
		for _, c := range rep.OutputAccess {
			if c < need {
				rep.OK = false
				break
			}
		}
	}
}

// countForward fills counts[i] with the number of targetStage vertices
// source srcs[i] reaches along allowed forward slots, strip by strip.
func (ac *AccessChecker) countForward(srcs []int32, targetStage int, allowed []uint8, counts []int) {
	start, _, heads := ac.nw.G.CSROut()
	words := ac.words
	first := ac.lv.First()
	sweepEnd := first[targetStage] // first position of the target level
	midEnd := first[targetStage+1]
	order := ac.lv.Order()
	for base := 0; base < len(srcs); base += ac.lanes {
		k := min(ac.lanes, len(srcs)-base)
		clear(words)
		for l := 0; l < k; l++ {
			words[srcs[base+l]] |= 1 << l
		}
		// Level order, so by the time v is expanded every allowed path
		// into v has already deposited its lanes: one pass suffices.
		// Vertices at or past the target level receive lane bits but are
		// never expanded: access counts paths that reach the middle
		// stage, not paths through it. On level-sorted graphs
		// (order == nil) positions ARE vertex IDs: the plain-ID sweep.
		if order == nil {
			for v := int32(0); v < sweepEnd; v++ {
				w := words[v]
				if w == 0 {
					continue
				}
				for idx := start[v]; idx < start[v+1]; idx++ {
					if allowed[idx]&graph.AdjBlocked == 0 {
						words[heads[idx]] |= w
					}
				}
			}
		} else {
			for p := int32(0); p < sweepEnd; p++ {
				v := order[p]
				w := words[v]
				if w == 0 {
					continue
				}
				for idx := start[v]; idx < start[v+1]; idx++ {
					if allowed[idx]&graph.AdjBlocked == 0 {
						words[heads[idx]] |= w
					}
				}
			}
		}
		// Transpose the middle-level block: each set bit is one (source,
		// middle-vertex) reachability pair.
		for l := 0; l < k; l++ {
			counts[base+l] = 0
		}
		for p := sweepEnd; p < midEnd; p++ {
			v := p
			if order != nil {
				v = order[p]
			}
			for w := words[v]; w != 0; w &= w - 1 {
				counts[base+bits.TrailingZeros64(w)]++
			}
		}
	}
}

// countBackward is countForward on the reverse CSR: sources are outputs,
// propagation walks levels downward, and InAllowed gates the slots.
func (ac *AccessChecker) countBackward(srcs []int32, targetStage int, allowed []uint8, counts []int) {
	start, _, tails := ac.nw.G.CSRIn()
	words := ac.words
	first := ac.lv.First()
	midFirst := first[targetStage]
	sweepStart := first[targetStage+1] // first position past the target level
	nPos := int32(ac.nw.G.NumVertices())
	order := ac.lv.Order()
	for base := 0; base < len(srcs); base += ac.lanes {
		k := min(ac.lanes, len(srcs)-base)
		clear(words)
		for l := 0; l < k; l++ {
			words[srcs[base+l]] |= 1 << l
		}
		if order == nil {
			for v := nPos - 1; v >= sweepStart; v-- {
				w := words[v]
				if w == 0 {
					continue
				}
				for idx := start[v]; idx < start[v+1]; idx++ {
					if allowed[idx]&graph.AdjBlocked == 0 {
						words[tails[idx]] |= w
					}
				}
			}
		} else {
			for p := nPos - 1; p >= sweepStart; p-- {
				v := order[p]
				w := words[v]
				if w == 0 {
					continue
				}
				for idx := start[v]; idx < start[v+1]; idx++ {
					if allowed[idx]&graph.AdjBlocked == 0 {
						words[tails[idx]] |= w
					}
				}
			}
		}
		for l := 0; l < k; l++ {
			counts[base+l] = 0
		}
		for p := midFirst; p < sweepStart; p++ {
			v := p
			if order != nil {
				v = order[p]
			}
			for w := words[v]; w != 0; w &= w - 1 {
				counts[base+bits.TrailingZeros64(w)]++
			}
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
