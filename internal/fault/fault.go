// Package fault implements the random switch failure model of
// Pippenger & Lin.
//
// Every switch (edge) of a network is independently in one of three states:
//
//   - open failure (probability ε₁): the switch is permanently off — the
//     edge ceases to exist;
//   - closed failure (probability ε₂): the switch is permanently on — the
//     two endpoint links contract into a single electrical node;
//   - normal (probability 1−ε₁−ε₂): the switch works.
//
// The package provides fault injection (with geometric skipping so that the
// common small-ε regime costs O(#failures), not O(#switches)), the paper's
// failure witnesses — terminal shorting through chains of closed switches
// (Lemma 7) and input/output isolation through open switches (Lemma 2,
// Theorem 1) — and the paper's repair rule: discard every faulty non-terminal
// vertex, i.e. both endpoints of every failed switch (§4: "we can find a
// nonblocking network contained in the fault-tolerant network merely by
// discarding faulty components and their immediate neighbors").
package fault

import (
	"fmt"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
	"ftcsn/internal/unionfind"
)

// State is the condition of a single switch.
type State uint8

// Switch states. Normal is the zero value so a freshly allocated state
// vector describes a fault-free network.
const (
	Normal State = iota
	Open
	Closed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Open:
		return "open"
	case Closed:
		return "closed"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Model holds the two failure probabilities. The paper assumes ε₁ = ε₂ = ε
// "for simplicity of notation"; we keep them separate and provide Symmetric
// for the paper's case.
type Model struct {
	OpenProb   float64 // ε₁, probability of open failure per switch
	ClosedProb float64 // ε₂, probability of closed failure per switch
}

// Symmetric returns the paper's symmetric model with ε₁ = ε₂ = ε.
func Symmetric(eps float64) Model { return Model{OpenProb: eps, ClosedProb: eps} }

// Validate checks 0 ≤ ε₁, ε₂ and ε₁+ε₂ ≤ 1. The checks are phrased so that
// a NaN probability, for which every comparison is false, fails them.
func (m Model) Validate() error {
	if !(m.OpenProb >= 0) || !(m.ClosedProb >= 0) || !(m.OpenProb+m.ClosedProb <= 1) {
		return fmt.Errorf("fault: invalid model ε₁=%v ε₂=%v", m.OpenProb, m.ClosedProb)
	}
	return nil
}

// Instance is one random realization of switch states for a graph.
// The graph itself is immutable and shared; the Instance owns only the
// per-edge state vector, so instances are cheap to reuse across Monte-Carlo
// trials via Reinject.
type Instance struct {
	G      *graph.Graph
	Edge   []State // indexed by edge ID
	opens  int
	closes int
}

// NewInstance returns a fault-free instance for g.
func NewInstance(g *graph.Graph) *Instance {
	return &Instance{G: g, Edge: make([]State, g.NumEdges())}
}

// Inject draws a fresh instance for g under model m using r.
func Inject(g *graph.Graph, m Model, r *rng.RNG) *Instance {
	inst := NewInstance(g)
	inst.Reinject(m, r)
	return inst
}

// InjectInto redraws inst's switch states in place under model m — the
// allocation-free counterpart of Inject for Monte-Carlo loops that own a
// reusable instance.
func InjectInto(inst *Instance, m Model, r *rng.RNG) {
	inst.Reinject(m, r)
}

// Reset returns the instance to the fault-free state, reusing its storage.
func (inst *Instance) Reset() {
	for i := range inst.Edge {
		inst.Edge[i] = Normal
	}
	inst.opens, inst.closes = 0, 0
}

// Reinject redraws all switch states in place. It panics with
// Model.Validate's error if m is not a valid fault model.
func (inst *Instance) Reinject(m Model, r *rng.RNG) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	inst.Reset()
	draw(m, len(inst.Edge), r, inst.SetState)
}

// draw draws one trial's switch states under the valid model m over
// switches [0, nEdges) and hands each failed switch to fail, in ascending
// edge order. When ε₁+ε₂ is small it skips healthy runs geometrically,
// visiting only failed switches. Instance.Reinject and BatchInjector both
// draw through it, so a trial's failures depend only on m and r.
func draw(m Model, nEdges int, r *rng.RNG, fail func(e int32, s State)) {
	p := m.OpenProb + m.ClosedProb
	switch {
	case p <= 0:
	case p >= 0.5:
		// Dense regime: draw per edge directly.
		for e := 0; e < nEdges; e++ {
			u := r.Float64()
			switch {
			case u < m.OpenProb:
				fail(int32(e), Open)
			case u < p:
				fail(int32(e), Closed)
			}
		}
	default:
		for pos := r.Geometric(p); pos < nEdges; pos += 1 + r.Geometric(p) {
			if r.Float64()*p < m.OpenProb {
				fail(int32(pos), Open)
			} else {
				fail(int32(pos), Closed)
			}
		}
	}
}

// NumOpen returns the number of open-failed switches.
func (inst *Instance) NumOpen() int { return inst.opens }

// NumClosed returns the number of closed-failed switches.
func (inst *Instance) NumClosed() int { return inst.closes }

// NumFailed returns the total number of failed switches.
func (inst *Instance) NumFailed() int { return inst.opens + inst.closes }

// SetState overrides the state of edge e (for deterministic tests and
// adversarial fault placement).
func (inst *Instance) SetState(e int32, s State) {
	old := inst.Edge[e]
	if old == s {
		return
	}
	switch old {
	case Open:
		inst.opens--
	case Closed:
		inst.closes--
	}
	switch s {
	case Open:
		inst.opens++
	case Closed:
		inst.closes++
	}
	inst.Edge[e] = s
}

// FaultyVerticesInto returns the mask of vertices incident to at least one
// failed switch, written into faulty, which is grown if needed; passing
// the previous trial's slice makes the call allocation-free. Terminals
// are included in the mask if they qualify; the repair rule (see Repair)
// is what exempts terminals from being discarded.
func (inst *Instance) FaultyVerticesInto(faulty []bool) []bool {
	faulty = growBools(faulty, inst.G.NumVertices())
	for i := range faulty {
		faulty[i] = false
	}
	for e, s := range inst.Edge {
		if s != Normal {
			faulty[inst.G.EdgeFrom(int32(e))] = true
			faulty[inst.G.EdgeTo(int32(e))] = true
		}
	}
	return faulty
}

// Repair applies the paper's discard rule and returns the usable-vertex
// mask: every non-terminal vertex incident to a failed switch is discarded
// (treated as permanently busy); terminals are never discarded. Routing on
// the repaired network must additionally traverse only Normal switches —
// RepairedEdgeUsable captures both conditions.
func (inst *Instance) Repair() []bool {
	return inst.RepairInto(nil)
}

// RepairInto is Repair writing into usable, which is grown if needed and
// returned; passing the previous trial's slice makes the call
// allocation-free.
func (inst *Instance) RepairInto(usable []bool) []bool {
	usable = growBools(usable, inst.G.NumVertices())
	for i := range usable {
		usable[i] = true
	}
	for e, s := range inst.Edge {
		if s == Normal {
			continue
		}
		u := inst.G.EdgeFrom(int32(e))
		v := inst.G.EdgeTo(int32(e))
		if !inst.G.IsTerminal(u) {
			usable[u] = false
		}
		if !inst.G.IsTerminal(v) {
			usable[v] = false
		}
	}
	return usable
}

// Discarded reports whether the repair rule discards v: v is not a
// terminal and a switch incident to v failed. It is Repair's rule for one
// vertex, for mask maintainers that recompute only the vertices a fault
// diff touched; its body stays within the inliner's budget, so their
// per-vertex loops pay no call.
func (inst *Instance) Discarded(v int32) bool {
	if inst.G.IsTerminal(v) {
		return false
	}
	for _, e := range inst.G.OutEdges(v) {
		if inst.Edge[e] != Normal {
			return true
		}
	}
	for _, e := range inst.G.InEdges(v) {
		if inst.Edge[e] != Normal {
			return true
		}
	}
	return false
}

// RepairedEdgeUsable reports whether edge e is traversable on the repaired
// network given the usable mask returned by Repair: the switch must be
// normal and both endpoints usable.
func (inst *Instance) RepairedEdgeUsable(usable []bool, e int32) bool {
	return inst.Edge[e] == Normal && usable[inst.G.EdgeFrom(e)] && usable[inst.G.EdgeTo(e)]
}

// RepairedEdgesInto writes RepairedEdgeUsable(usable, e) for every edge e
// into edgeOK, which is grown if needed and returned; passing the previous
// trial's slice makes the call allocation-free.
func (inst *Instance) RepairedEdgesInto(usable, edgeOK []bool) []bool {
	edgeOK = growBools(edgeOK, len(inst.Edge))
	for e := range edgeOK {
		edgeOK[e] = inst.RepairedEdgeUsable(usable, int32(e))
	}
	return edgeOK
}

// growBools resizes s to n elements, reusing capacity when possible; the
// contents are unspecified and must be overwritten by the caller.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Scratch holds every reusable buffer the failure-witness checks need:
// an O(1)-reset disjoint-set forest for closed-switch contraction, an
// epoch-stamped terminal-owner table (replacing a per-call map), and
// epoch-stamped BFS state for conductive reachability. One Scratch serves
// one goroutine's trials; give each Monte-Carlo worker its own via
// montecarlo.RunBoolWith.
type Scratch struct {
	uf *unionfind.Sparse

	// owner[root] is the terminal that first claimed component root during
	// the current shorting check; valid iff ownerEpoch[root] equals
	// ownerCur. The epoch bump replaces clearing (the reachScratch idiom),
	// so the check is O(#terminals α(n)) with zero allocation.
	owner      []int32
	ownerEpoch []uint32
	ownerCur   uint32

	reach reachScratch
}

// NewScratch returns witness-check scratch sized for g.
func NewScratch(g *graph.Graph) *Scratch {
	n := g.NumVertices()
	return &Scratch{
		uf:         unionfind.NewSparse(n),
		owner:      make([]int32, n),
		ownerEpoch: make([]uint32, n),
		reach:      newReachScratch(n),
	}
}

// ShortedTerminals detects Lemma 7's failure event: it returns a pair of
// distinct terminals that are contracted into a single electrical node by a
// chain of closed switches, or (-1, -1) if no such pair exists.
func (inst *Instance) ShortedTerminals() (a, b int32) {
	return inst.ShortedTerminalsWith(NewScratch(inst.G))
}

// ShortedTerminalsWith is ShortedTerminals using caller-owned scratch; it
// allocates nothing.
func (inst *Instance) ShortedTerminalsWith(sc *Scratch) (a, b int32) {
	sc.uf.Reset()
	for e, s := range inst.Edge {
		if s == Closed {
			sc.uf.Union(int(inst.G.EdgeFrom(int32(e))), int(inst.G.EdgeTo(int32(e))))
		}
	}
	return sc.shortedPair(inst.G)
}

// ShortedTerminalsFromList is ShortedTerminalsWith given the trial's
// failure list (edge IDs ascending, as produced by BatchInjector) instead
// of a full edge-state scan: only the closed entries are unioned, so the
// check costs O(#closed α(n) + #terminals) rather than O(E + V). The
// result is identical to ShortedTerminalsWith on the same instance.
func (inst *Instance) ShortedTerminalsFromList(edges []int32, states []State, sc *Scratch) (a, b int32) {
	sc.uf.Reset()
	for i, e := range edges {
		if states[i] == Closed {
			sc.uf.Union(int(inst.G.EdgeFrom(e)), int(inst.G.EdgeTo(e)))
		}
	}
	return sc.shortedPair(inst.G)
}

// shortedPair assigns each terminal of g, inputs then outputs, to its
// component root in sc.uf and returns the first pair of terminals found
// sharing a root, or (-1, -1). The pair depends only on the contracted
// partition and that scan order, not on the forest's internals.
func (sc *Scratch) shortedPair(g *graph.Graph) (int32, int32) {
	sc.ownerCur++
	if sc.ownerCur == 0 {
		// The ~4-billion-call wraparound: clear the stale stamps.
		for i := range sc.ownerEpoch {
			sc.ownerEpoch[i] = 0
		}
		sc.ownerCur = 1
	}
	for _, terms := range [2][]int32{g.Inputs(), g.Outputs()} {
		for _, t := range terms {
			root := sc.uf.Find(int(t))
			if sc.ownerEpoch[root] == sc.ownerCur {
				return sc.owner[root], t
			}
			sc.ownerEpoch[root] = sc.ownerCur
			sc.owner[root] = t
		}
	}
	return -1, -1
}

// reachScratch holds reusable, epoch-stamped BFS buffers for connectivity
// checks: seen[v] == epoch marks v visited in the current search, so resets
// are O(1) instead of O(n).
type reachScratch struct {
	seen  []uint32
	epoch uint32
	queue []int32
}

func newReachScratch(n int) reachScratch {
	return reachScratch{seen: make([]uint32, n), queue: make([]int32, 0, 256)}
}

func (sc *reachScratch) reset() {
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.epoch = 1
	}
	sc.queue = sc.queue[:0]
}

func (sc *reachScratch) saw(v int32) bool { return sc.seen[v] == sc.epoch }

func (sc *reachScratch) mark(v int32) { sc.seen[v] = sc.epoch }

// conductiveReach marks in sc.seen every vertex reachable from src in the
// contracted graph: normal switches are traversed in their direction and
// closed switches in both directions (a closed switch merges its endpoints
// into one node, so it conducts both ways). Open switches are gone.
func (inst *Instance) conductiveReach(src int32, sc *reachScratch) {
	sc.reset()
	sc.mark(src)
	sc.queue = append(sc.queue, src)
	g := inst.G
	for len(sc.queue) > 0 {
		v := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		for _, e := range g.OutEdges(v) {
			if inst.Edge[e] == Open {
				continue
			}
			if w := g.EdgeTo(e); !sc.saw(w) {
				sc.mark(w)
				sc.queue = append(sc.queue, w)
			}
		}
		for _, e := range g.InEdges(v) {
			if inst.Edge[e] != Closed {
				continue
			}
			if w := g.EdgeFrom(e); !sc.saw(w) {
				sc.mark(w)
				sc.queue = append(sc.queue, w)
			}
		}
	}
}

// IsolatedPair detects the open-failure witness used throughout Section 5:
// it returns an (input, output) pair such that no path of conducting
// switches joins them, or (-1, -1) if every input reaches every output.
// Reaching every output from every input is the r=1 requirement of an
// n-superconcentrator, hence a necessary condition for all three network
// classes of the paper.
func (inst *Instance) IsolatedPair() (in, out int32) {
	return inst.IsolatedPairWith(NewScratch(inst.G))
}

// IsolatedPairWith is IsolatedPair using caller-owned scratch; it allocates
// nothing in steady state.
func (inst *Instance) IsolatedPairWith(sc *Scratch) (in, out int32) {
	for _, src := range inst.G.Inputs() {
		inst.conductiveReach(src, &sc.reach)
		for _, dst := range inst.G.Outputs() {
			if !sc.reach.saw(dst) {
				return src, dst
			}
		}
	}
	return -1, -1
}

// SurvivesBasicChecksWith reports whether the instance passes both
// necessary conditions for containing a working network: no two terminals
// shorted and no input/output pair isolated. This is the cheap necessary
// test used for baseline networks in experiment E8 and ftsim; the full
// sufficient verification for Network 𝒩 lives in package core. sc is
// caller-owned scratch for inst's graph.
func (inst *Instance) SurvivesBasicChecksWith(sc *Scratch) bool {
	if a, _ := inst.ShortedTerminalsWith(sc); a >= 0 {
		return false
	}
	if a, _ := inst.IsolatedPairWith(sc); a >= 0 {
		return false
	}
	return true
}
