package core

import (
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
)

// MaskUpdater maintains repair masks incrementally: given the switches
// whose state changed between consecutive fault trials (the diff
// fault.BatchInjector.ApplyNext returns, or any list a caller builds),
// Apply recomputes only the stage-neighborhoods of the changed edges —
// each changed edge's endpoints, and the switches incident to any endpoint
// whose usability flipped — instead of the O(E) rescan of RepairMasksInto.
// It also keeps the masks' CSR-slot-aligned traversal byte array
// (Masks.OutAllowed) current, so the word-parallel certificate
// (AccessChecker) and the routing engines that share the bytes see the
// update for free.
//
// The dirty lists are reused across calls, so per-trial bookkeeping
// allocates nothing in steady state. They are not deduplicated: every
// entry recomputes from the instance's current state, so a repeat costs
// one more recomputation and changes nothing. Equivalence with the
// from-scratch rescan is locked by FuzzIncrementalRepairMasks.
type MaskUpdater struct {
	g *graph.Graph

	dirtyV  []int32
	dirtyE  []int32
	flipped []int32 // vertices whose usability actually flipped in the last Apply
}

// NewMaskUpdater returns an updater for graphs over g.
func NewMaskUpdater(g *graph.Graph) *MaskUpdater {
	return &MaskUpdater{g: g}
}

// Init fully recomputes m from inst, traversal bytes included: it is
// RepairMasksInto, which reuses m's existing buffers. Call it once per
// (instance, masks) pairing; afterwards keep the pair current with Apply.
func (mu *MaskUpdater) Init(inst *fault.Instance, m *Masks) {
	RepairMasksInto(inst, m)
}

// Apply updates m after the switches in diff changed state on inst. m
// must be current for inst's state before those changes (via Init or a
// previous Apply), and diff must name every switch that changed; it may
// name one twice, or name one that did not change, and need not be
// sorted. It reads only inst's current states, so setting the listed
// switches back and calling Apply with the same list undoes an update.
// It returns the IDs of the edges whose mask entries were recomputed — a
// superset of those that actually changed — valid until the next call.
// An edge may be listed more than once (a changed switch whose endpoint
// also flipped, or a switch between two flipped vertices);
// route.Engine.MasksChangedDiff accepts repeats, since its worklist
// deduplicates. ChangedVertices lists each flip once: a repeated dirty
// vertex recomputes to "no flip".
func (mu *MaskUpdater) Apply(inst *fault.Instance, m *Masks, diff []int32) []int32 {
	g := mu.g
	mu.dirtyV = mu.dirtyV[:0]
	mu.dirtyE = append(mu.dirtyE[:0], diff...)
	mu.flipped = mu.flipped[:0]
	for _, e := range diff {
		mu.dirtyV = append(mu.dirtyV, g.EdgeFrom(e), g.EdgeTo(e))
	}
	// Usability of a vertex depends only on its incident switches
	// (fault.Instance.Discarded).
	for _, v := range mu.dirtyV {
		ok := !inst.Discarded(v)
		//ftlint:ignore seamcontract audited: the mask maintainer itself — it derives the masks and traversal bytes everyone else reads
		if ok == m.VertexOK[v] {
			continue
		}
		m.VertexOK[v] = ok
		mu.flipped = append(mu.flipped, v)
		// A flipped vertex invalidates every incident switch's entry.
		mu.dirtyE = append(mu.dirtyE, g.OutEdges(v)...)
		mu.dirtyE = append(mu.dirtyE, g.InEdges(v)...)
	}
	for _, e := range mu.dirtyE {
		ok := inst.RepairedEdgeUsable(m.VertexOK, e)
		m.EdgeOK[e] = ok
		// Only the AdjBlocked bit moves; the static AdjTerminal bit stays.
		slot := g.OutSlot(e)
		m.OutAllowed[slot] &^= graph.AdjBlocked
		if !ok {
			m.OutAllowed[slot] |= graph.AdjBlocked
		}
	}
	return mu.dirtyE
}

// ChangedVertices returns the vertices whose usability flipped in the
// last Apply (not the merely-touched endpoints) — together with Apply's
// returned edge list, the exact change set an engine needs to refresh
// derived state incrementally (route.Engine.MasksChangedDiff). Valid
// until the next Apply.
func (mu *MaskUpdater) ChangedVertices() []int32 { return mu.flipped }
