// Package route implements circuit-switching session routing: establishing
// and releasing vertex-disjoint paths between idle terminals of a network.
//
// Pippenger & Lin's §4 observes that because their fault-tolerant network
// contains a *strictly* nonblocking network, "routing can be performed by a
// 'greedy' application of a standard path-finding algorithm, so no
// difficult computations are involved". Router is that greedy algorithm: a
// depth-first path hunt over idle usable vertices (visited-stamped, so the
// worst case stays linear while the common lightly-loaded case costs only
// about depth·degree). On a strictly nonblocking (sub)network it can never
// fail; on weaker networks (Beneš without rearrangement, butterflies) its
// failures are themselves measurements, which experiment E9 exploits.
//
// Two engines are provided behind one Engine seam: the sequential Router,
// and ShardedEngine, which runs the same hunt in input order against its
// owner array, pruned by a per-epoch output-reachability guide, so its
// decisions and paths are bit-identical to the Router's. Multi-core speed
// comes from running independent trials in parallel (package montecarlo),
// not from splitting a batch.
package route

import (
	"errors"
	"fmt"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
)

// ErrNoPath is returned when no idle path joins the requested terminals.
var ErrNoPath = errors.New("route: no idle path between requested terminals")

// ErrBusyTerminal is returned when an endpoint is already in a circuit.
var ErrBusyTerminal = errors.New("route: terminal already busy")

// ErrDiscardedTerminal is returned when an endpoint has been discarded by
// repair (its vertex mask bit is off).
var ErrDiscardedTerminal = errors.New("route: terminal discarded by repair")

// ErrNoCircuit is returned by an Engine's Disconnect when no live circuit
// joins the given terminals.
var ErrNoCircuit = errors.New("route: no such circuit")

// ErrNotTerminal is returned when the requested input is not an input
// terminal or the requested output is not an output terminal of the
// network, IDs outside the network included.
var ErrNotTerminal = errors.New("route: endpoint is not a terminal of the requested kind")

// Router maintains a set of vertex-disjoint circuits on a (possibly
// repaired) network and serves connect/disconnect requests greedily.
type Router struct {
	g        *graph.Graph
	vertexOK []bool // usable vertices after repair (nil = all usable)
	edgeOK   []bool // usable switches after repair (nil = all usable)
	busy     []bool // vertices held by established circuits
	circuits map[int64][]int32

	// allowed is the CSR-slot-aligned traversal byte array the BFS hot
	// loop reads instead of the edgeOK/vertexOK/IsTerminal triple (see
	// graph.AdjBlocked/AdjTerminal). It is either owned (built from the
	// constructor's masks into allowedOwned) or shared (adopted from a
	// caller that maintains it incrementally, via SetMasksShared).
	allowed      []uint8
	allowedOwned []uint8

	// BFS scratch, epoch-stamped to avoid clearing per request. pred[w]
	// is the vertex whose slot discovered w, so a found path is rebuilt
	// from this array alone.
	seenEpoch []uint32
	epoch     uint32
	pred      []int32
	queue     []int32
	rev       []int32 // path-reconstruction scratch

	// Path pooling (EnablePathReuse): retired circuit paths are kept on a
	// free list and reused by later Connects, making steady-state churn
	// allocation-free. Pooled paths are only valid until Disconnect.
	pooled   bool
	pathPool [][]int32

	// levels is the graph's per-vertex topological level (graph.Levels;
	// nil on cyclic graphs): the exact pruning cut of the DFS hunt — a
	// non-output vertex at level(out) or above can never reach out.
	levels []int32

	stats EngineStats // cumulative ConnectBatch counters (engine seam)
}

// NewRouter returns a router over the fault-free network g.
func NewRouter(g *graph.Graph) *Router {
	return newRouter(g, nil, nil)
}

// NewRepairedRouter returns a router over the repaired network defined by a
// fault instance: the paper's discard rule removes both endpoints of every
// failed switch (terminals excepted), and only normal switches conduct.
func NewRepairedRouter(inst *fault.Instance) *Router {
	usable := inst.Repair()
	return newRouter(inst.G, usable, inst.RepairedEdgesInto(usable, nil))
}

func newRouter(g *graph.Graph, vertexOK, edgeOK []bool) *Router {
	n := g.NumVertices()
	rt := &Router{
		g:         g,
		vertexOK:  vertexOK,
		edgeOK:    edgeOK,
		busy:      make([]bool, n),
		circuits:  make(map[int64][]int32),
		seenEpoch: make([]uint32, n),
		pred:      make([]int32, n),
		queue:     make([]int32, 0, 256),
	}
	rt.allowedOwned = g.BuildOutAllowed(edgeOK, vertexOK, nil)
	rt.allowed = rt.allowedOwned
	if lv, err := g.Levels(); err == nil {
		rt.levels = lv.PerVertex()
	}
	return rt
}

// EnablePathReuse switches the router to pooled path slices: the slice
// returned by Connect is recycled once its circuit is Disconnected (or the
// router is Reset), so callers must not retain it past the circuit's
// lifetime. Together with SetMasksShared and Reset this makes a long-lived
// router allocation-free in steady state; core.Evaluator relies on it.
func (rt *Router) EnablePathReuse() { rt.pooled = true }

// SetMasksShared replaces the usable-vertex and usable-switch masks and
// the caller-maintained CSR-slot-aligned traversal byte array for the
// same masks (as built by graph.BuildOutAllowed and kept current by
// core's incremental mask updater), releasing every established circuit,
// since a mask change invalidates existing paths. The router adopts all
// three slices without copying: as the caller updates them in place
// between trials, only Reset is needed per trial, so mask changes cost
// O(#changes) instead of O(E).
func (rt *Router) SetMasksShared(vertexOK, edgeOK []bool, outAllowed []uint8) {
	rt.vertexOK, rt.edgeOK = vertexOK, edgeOK
	rt.allowed = outAllowed
	rt.Reset()
}

func circuitKey(in, out int32) int64 { return int64(in)<<32 | int64(uint32(out)) }

func (rt *Router) usableVertex(v int32) bool {
	//ftlint:ignore seamcontract audited endpoint-admission accessor: vertexOK gates terminals only; per-edge admission stays in the traversal bytes
	return rt.vertexOK == nil || rt.vertexOK[v]
}

func (rt *Router) usableEdge(e int32) bool {
	//ftlint:ignore seamcontract audited: called only from VerifyInvariants, which cross-checks established paths against the raw masks
	return rt.edgeOK == nil || rt.edgeOK[e]
}

// Connect establishes a circuit from input in to output out along a path
// of idle usable vertices, returning the path (in … out). It fails with
// ErrNotTerminal unless in is an input terminal and out an output
// terminal (checked first), ErrBusyTerminal if either endpoint is busy
// (a repeat of a live circuit included: its endpoints stay busy),
// ErrDiscardedTerminal if repair discarded an endpoint, and ErrNoPath if
// the greedy search finds no idle route.
func (rt *Router) Connect(in, out int32) ([]int32, error) {
	if !rt.g.IsInput(in) || !rt.g.IsOutput(out) {
		return nil, ErrNotTerminal
	}
	if rt.busy[in] || rt.busy[out] {
		return nil, ErrBusyTerminal
	}
	if !rt.usableVertex(in) || !rt.usableVertex(out) {
		return nil, ErrDiscardedTerminal
	}
	rt.epoch++
	if rt.epoch == 0 { // wrapped: clear stamps and restart epochs
		for i := range rt.seenEpoch {
			rt.seenEpoch[i] = 0
		}
		rt.epoch = 1
	}
	rt.seenEpoch[in] = rt.epoch
	rt.queue = rt.queue[:0]
	rt.queue = append(rt.queue, in)
	found := false
	// Greedy depth-first path hunting (the queue doubles as the stack):
	// on a lightly loaded network the search dives straight to the output
	// in O(depth·degree) steps instead of sweeping the whole usable graph
	// the way a breadth-first search does, and the visited stamps keep the
	// worst case at one scan per edge, so completeness is unchanged — a
	// connect succeeds exactly when an idle usable path exists. On this
	// repository's stage-layered networks every input→output path has the
	// same length, so path-length statistics are search-order independent.
	// The hot loop reads one byte per CSR slot (graph.AdjBlocked /
	// AdjTerminal) in place of the usable-switch, usable-head and
	// terminal-head lookups, with heads read sequentially. Discovery
	// records the expanded vertex as the new vertex's predecessor, so the
	// hunt never reads the CSR edge IDs or the edge-tail table.
	start, _, heads := rt.g.CSROut()
	allowed := rt.allowed
	seen, busy, pred, epoch := rt.seenEpoch, rt.busy, rt.pred, rt.epoch
	// Levels-aware pruning: every edge steps to a strictly higher level
	// (graph.Levels), so a non-output vertex at level(out) or above can
	// reach only vertices above level(out) — never out. Skipping such a
	// vertex is exact: neither it nor anything in its (entirely prunable)
	// descent cone can discover out, so the pop order and predecessor
	// of every surviving vertex — hence decisions AND paths — are
	// bit-identical to the unpruned hunt. On networks whose outputs all
	// sit on the last level the cut is vacuous; it pays on families with
	// output levels below the maximum (superconcentrator recursions,
	// Kahn-leveled wrapped graphs), where an unpruned hunt wanders past
	// the target's level.
	lvl := rt.levels
	var outLvl int32
	if lvl != nil {
		outLvl = lvl[out]
	}
	for len(rt.queue) > 0 && !found {
		v := rt.queue[len(rt.queue)-1]
		rt.queue = rt.queue[:len(rt.queue)-1]
		for idx := start[v]; idx < start[v+1]; idx++ {
			w := heads[idx]
			if !graph.SlotAdmits(allowed[idx], w, out) {
				continue
			}
			if lvl != nil && w != out && lvl[w] >= outLvl {
				continue
			}
			if seen[w] == epoch || busy[w] {
				continue
			}
			seen[w] = epoch
			pred[w] = v
			if w == out {
				found = true
				break
			}
			rt.queue = append(rt.queue, w)
		}
	}
	if !found {
		return nil, ErrNoPath
	}
	// Reconstruct the path from the predecessors just written, and claim
	// it.
	rt.rev = rt.rev[:0]
	for v := out; ; {
		rt.rev = append(rt.rev, v)
		if v == in {
			break
		}
		v = pred[v]
	}
	path := rt.newPath(len(rt.rev))
	for i, v := range rt.rev {
		path[len(rt.rev)-1-i] = v
	}
	for _, v := range path {
		rt.busy[v] = true
	}
	rt.circuits[circuitKey(in, out)] = path
	return path, nil
}

// newPath returns an n-element path slice, recycled from the pool when path
// reuse is enabled and a retired slice is large enough.
func (rt *Router) newPath(n int) []int32 {
	if rt.pooled {
		for len(rt.pathPool) > 0 {
			last := len(rt.pathPool) - 1
			p := rt.pathPool[last]
			rt.pathPool = rt.pathPool[:last]
			if cap(p) >= n {
				return p[:n]
			}
			// Too small to reuse: drop it and try the next.
		}
	}
	//ftlint:ignore hotpath pool-miss fallback: steady-state churn recycles retired paths, so this is first-use only
	return make([]int32, n)
}

// retirePath hands a no-longer-live circuit path back to the pool.
func (rt *Router) retirePath(p []int32) {
	if rt.pooled {
		rt.pathPool = append(rt.pathPool, p)
	}
}

// Disconnect releases the circuit between in and out, or returns
// ErrNoCircuit.
func (rt *Router) Disconnect(in, out int32) error {
	key := circuitKey(in, out)
	path, ok := rt.circuits[key]
	if !ok {
		return ErrNoCircuit
	}
	for _, v := range path {
		rt.busy[v] = false
	}
	delete(rt.circuits, key)
	rt.retirePath(path)
	return nil
}

// ActiveCircuits returns the number of established circuits.
func (rt *Router) ActiveCircuits() int { return len(rt.circuits) }

// PathOf returns the established path for (in, out), or nil.
func (rt *Router) PathOf(in, out int32) []int32 { return rt.circuits[circuitKey(in, out)] }

// Reset releases all circuits, keeping every buffer for reuse. It clears
// busy flags only along the live circuit paths (every busy vertex lies on
// one — see VerifyInvariants), so a reset costs O(total live path length)
// rather than O(V).
func (rt *Router) Reset() {
	//ftlint:ignore determinism order-insensitive fold: clearing busy bits and retiring paths commutes across circuits
	for _, path := range rt.circuits {
		for _, v := range path {
			rt.busy[v] = false
		}
		rt.retirePath(path)
	}
	clear(rt.circuits)
}

// VerifyInvariants checks that established circuits are vertex-disjoint
// directed paths over usable idle-claimed vertices; it is used by tests and
// the churn harness.
func (rt *Router) VerifyInvariants() error {
	claimed := make(map[int32]bool)
	//ftlint:ignore determinism verification helper: which violation is reported first may vary, but any violation fails the caller
	for key, path := range rt.circuits {
		in := int32(key >> 32)
		out := int32(uint32(key))
		if len(path) < 2 || path[0] != in || path[len(path)-1] != out {
			return fmt.Errorf("route: malformed path for (%d,%d)", in, out)
		}
		for i, v := range path {
			if claimed[v] {
				return fmt.Errorf("route: vertex %d on two circuits", v)
			}
			claimed[v] = true
			if !rt.busy[v] {
				return fmt.Errorf("route: path vertex %d not marked busy", v)
			}
			if !rt.usableVertex(v) {
				return fmt.Errorf("route: path vertex %d not usable", v)
			}
			if i == 0 {
				continue
			}
			// There must be a usable switch path[i-1] -> path[i].
			ok := false
			for _, e := range rt.g.OutEdges(path[i-1]) {
				if rt.g.EdgeTo(e) == v && rt.usableEdge(e) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("route: no usable switch %d->%d", path[i-1], v)
			}
		}
	}
	for v, isBusy := range rt.busy {
		if isBusy && !claimed[int32(v)] {
			return fmt.Errorf("route: vertex %d busy but on no circuit", v)
		}
	}
	return nil
}
