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
// imposes no restriction. VertexOK never discards a terminal: the repair
// rule keeps every input and output, and both sweeps of the certificate
// rely on it, since a discarded terminal would reach nothing.
//
// OutAllowed is the CSR-slot-aligned traversal byte array for the same
// masks (graph.BuildOutAllowed): slot i's AdjBlocked bit is set iff the
// edge in slot i is disallowed by EdgeOK or either endpoint by VertexOK.
// The majority-access certificate reads only these bytes, and the
// routing engines adopt them. RepairMasksInto builds them and MaskUpdater
// keeps them current across trials; masks assembled any other way must
// build them too.
type Masks struct {
	VertexOK []bool
	EdgeOK   []bool

	OutAllowed []uint8
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
	m.VertexOK = inst.RepairInto(m.VertexOK)
	m.EdgeOK = inst.RepairedEdgesInto(m.VertexOK, m.EdgeOK)
	m.OutAllowed = inst.G.BuildOutAllowed(m.EdgeOK, m.VertexOK, m.OutAllowed)
}

// AccessChecker performs the access computations of Lemma 6 and Corollary
// 2 for every terminal at once: how many middle-stage vertices each input
// reaches along allowed slots, and how many reach each output.
//
// It is the classic batched-reachability trick. Every vertex owns one
// 64-bit lane word in which bit l means "source l of the current strip
// reaches this vertex". Sources are processed in strips of up to 64
// lanes: a strip seeds source l's bit at its terminal, then one pass over
// vertices in topological-level order (graph.Levels) ORs each vertex's
// word into the heads of its OutAllowed-permitted CSR slots — propagating
// 64 single-source reachability frontiers per machine word operation. At
// the middle stage the per-lane column populations are the access counts.
// The output side pulls over the same forward CSR and bytes: in reverse
// level order, from the top level down to the middle, each vertex's word
// becomes its own output lanes OR the words of the heads of its unblocked
// slots. Because OutAllowed blocks every slot out of a discarded vertex
// too, a discarded vertex adds nothing on either side. Total cost is
// O(E·n/64) word operations.
//
// "Stage" means topological level. Each sweep walks traversal positions
// and maps a position to its vertex through the cached level order: on
// 𝒩 and every staged MIN the vertex IDs are level-sorted and a position
// is its vertex ID, while Mirror images, hammock substitutions,
// superconcentrators, hyperx and circulant unrollings read the
// level-sorted permutation. Every Network has a leveling: Build's 𝒩 is
// acyclic and WrapGraph rejects cyclic graphs. The lane words are
// allocated once, so repeated checks over one network allocate nothing.
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
	// reaches; OutputAccess[j] the number that reach output j.
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
// slices across calls so repeated certification allocates nothing. ac must
// be a checker for nw, and m must carry the traversal bytes (OutAllowed,
// as RepairMasksInto and MaskUpdater build them): the check reads nothing
// else. It panics on a checker for another network, even one of the same
// size, and on masks without the bytes.
func (nw *Network) MajorityAccessInto(ac *AccessChecker, m Masks, rep *MajorityReport) {
	if ac.nw != nw {
		panic("core: MajorityAccessInto: the access checker was built for another network")
	}
	if len(m.OutAllowed) != nw.G.NumEdges() {
		panic("core: MajorityAccessInto: masks lack this network's traversal bytes; build them with RepairMasksInto or MaskUpdater")
	}
	mid := nw.MiddleStage
	first := ac.lv.First()
	rep.MiddleSize = int(first[mid+1] - first[mid])
	rep.InputAccess = growInts(rep.InputAccess, len(nw.Inputs()))
	rep.OutputAccess = growInts(rep.OutputAccess, len(nw.Outputs()))
	ac.countForward(nw.Inputs(), mid, m.OutAllowed, rep.InputAccess)
	ac.countBackward(nw.Outputs(), mid, m.OutAllowed, rep.OutputAccess)
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
	sweepEnd := ac.lv.First()[targetStage] // first position of the target level
	order := ac.lv.Order()
	for base := 0; base < len(srcs); base += ac.lanes {
		strip := srcs[base:min(base+ac.lanes, len(srcs))]
		ac.seed(strip)
		// Level order, so by the time v is expanded every allowed path
		// into v has already deposited its lanes: one pass suffices.
		// Vertices at or past the target level receive lane bits but are
		// never expanded: access counts paths that reach the middle
		// stage, not paths through it.
		for p := int32(0); p < sweepEnd; p++ {
			v := p
			if order != nil {
				v = order[p]
			}
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
		ac.tally(targetStage, counts[base:base+len(strip)])
	}
}

// countBackward fills counts[j] with the number of targetStage vertices
// that reach output srcs[j] along allowed slots, strip by strip. It pulls
// over the forward CSR: in reverse level order, from the top level down
// to the target level, each vertex's word becomes its own output lanes OR
// the words of the heads of its unblocked slots. Every head sits at a
// higher level, so its word is final when read. A discarded vertex's
// slots are all blocked (graph.BuildOutAllowed), so its word is its own
// lanes only, which are zero since no terminal is discarded.
func (ac *AccessChecker) countBackward(srcs []int32, targetStage int, allowed []uint8, counts []int) {
	start, _, heads := ac.nw.G.CSROut()
	words := ac.words
	midFirst := ac.lv.First()[targetStage]
	nPos := int32(ac.nw.G.NumVertices())
	order := ac.lv.Order()
	for base := 0; base < len(srcs); base += ac.lanes {
		strip := srcs[base:min(base+ac.lanes, len(srcs))]
		ac.seed(strip)
		for p := nPos - 1; p >= midFirst; p-- {
			v := p
			if order != nil {
				v = order[p]
			}
			w := words[v]
			for idx := start[v]; idx < start[v+1]; idx++ {
				if allowed[idx]&graph.AdjBlocked == 0 {
					w |= words[heads[idx]]
				}
			}
			words[v] = w
		}
		ac.tally(targetStage, counts[base:base+len(strip)])
	}
}

// seed starts a strip: it clears every lane word, then sets lane l at the
// strip's source strip[l].
func (ac *AccessChecker) seed(strip []int32) {
	clear(ac.words)
	for l, v := range strip {
		ac.words[v] |= 1 << l
	}
}

// tally transposes the target-level block of a swept strip: counts[l]
// becomes the number of targetStage vertices whose word holds lane l,
// each set bit being one (source, middle-vertex) reachability pair.
func (ac *AccessChecker) tally(targetStage int, counts []int) {
	first, order := ac.lv.First(), ac.lv.Order()
	clear(counts)
	for p := first[targetStage]; p < first[targetStage+1]; p++ {
		v := p
		if order != nil {
			v = order[p]
		}
		for w := ac.words[v]; w != 0; w &= w - 1 {
			counts[bits.TrailingZeros64(w)]++
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
