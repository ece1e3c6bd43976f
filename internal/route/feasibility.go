package route

// Word-parallel batch feasibility: one lane sweep answering "which of
// these ≤64 pending requests have any idle path right now" before any
// router runs. This is the routing-side instance of the batched
// reachability trick behind core.BatchAccessChecker (route cannot import
// core, so the sweep is restated here over the same graph.Levels
// contract): every vertex owns one 64-bit lane word, bit l meaning
// "request l's input reaches this vertex through idle usable vertices",
// and a single pass over vertices in topological-level order — plain ID
// order on level-sorted graphs, the cached permutation otherwise —
// propagates all 64 frontiers per machine-word OR.
//
// Busy state enters exactly as in the routers' hunts: a claimed vertex is
// never expanded, so no frontier passes through it (endpoints are screened
// before the sweep). Terminal slots (AdjTerminal) deposit only the lanes
// that requested that terminal as their output, mirroring the "a circuit
// may only enter a terminal if it is the requested output" rule. The
// verdict is therefore exact: bit l survives at request l's output iff
// Router.Connect / ShardedEngine.probe would find a path on the same
// snapshot — which is what makes the prefilter decision-neutral and lets
// ServeBatch skip probing (and reject) infeasible requests outright.

import (
	"ftcsn/internal/bitset"
	"ftcsn/internal/graph"
)

// laneWidth is the number of requests one sweep handles: one bit lane per
// request in a 64-bit word.
const laneWidth = 64

// lanePass is the reusable scratch of one feasibility sweep: the per-vertex
// lane words (a bitset.Set of capacity 64·V, vertex v's word is Words()[v])
// and the per-vertex output lane masks with their touched list.
type lanePass struct {
	rows    *bitset.Set
	outMask []uint64
	touched []int32
}

func newLanePass(g *graph.Graph) *lanePass {
	//ftlint:ignore hotpath constructor: built lazily once per shard lifetime (see ShardedEngine.speculate), then reused every batch
	return &lanePass{
		rows: bitset.New(64 * g.NumVertices()),
		//ftlint:ignore hotpath same one-time lane-pass construction: outMask lives for the shard's lifetime
		outMask: make([]uint64, g.NumVertices()),
	}
}

// sweep runs one lane pass for the requests at positions lanes (≤64 of
// them) of reqs, whose endpoints have already been screened idle and
// usable, and returns the feasible-lane bitmask. The claim snapshot must
// not change during the sweep (ServeBatch phase A guarantees this).
func (lp *lanePass) sweep(se *ShardedEngine, reqs []Request, lanes []int32) uint64 {
	lp.rows.Reset()
	words := lp.rows.Words()
	for l, ri := range lanes {
		rq := reqs[ri]
		lp.rows.Set(int(rq.In)<<6 | l)
		if lp.outMask[rq.Out] == 0 {
			lp.touched = append(lp.touched, rq.Out)
		}
		lp.outMask[rq.Out] |= 1 << uint(l)
	}
	start, _, heads := se.g.CSROut()
	allowed := se.allowed
	claims := se.claims
	order := se.lv.Order()
	// Level order (graph.Levels), so one pass visits every slot after its
	// tail's word is final — plain ID order when the graph is level-sorted
	// (order == nil). Claimed vertices are never expanded: their word may
	// hold bits, but no frontier continues through them — the sweep
	// analogue of the hunts' busy check. Output terminals are reached only
	// through AdjTerminal slots gated by outMask, and were screened idle,
	// so their surviving bits are exactly the feasible requests.
	for p := int32(0); p < int32(len(words)); p++ {
		v := p
		if order != nil {
			v = order[p]
		}
		w := words[v]
		if w == 0 || claims[v].Load() != 0 {
			continue
		}
		for idx := start[v]; idx < start[v+1]; idx++ {
			if c := allowed[idx]; c == 0 {
				words[heads[idx]] |= w
			} else if c == graph.AdjTerminal {
				if m := lp.outMask[heads[idx]]; m != 0 {
					words[heads[idx]] |= w & m
				}
			}
		}
	}
	var feas uint64
	for l, ri := range lanes {
		if words[reqs[ri].Out]&(1<<uint(l)) != 0 {
			feas |= 1 << uint(l)
		}
	}
	for _, v := range lp.touched {
		lp.outMask[v] = 0
	}
	lp.touched = lp.touched[:0]
	return feas
}
