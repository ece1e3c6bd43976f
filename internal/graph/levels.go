package graph

import "fmt"

// Levels is the cached topological-level assignment of a DAG: every vertex
// gets a level, every edge steps from a strictly lower level to a strictly
// higher one, and the vertices come with a level-sorted traversal order.
// It is the contract behind every one-pass sweep in the repository — the
// word-parallel access certificate (core.AccessChecker) and the
// routing reachability guide (route.ShardedEngine): visiting vertices in
// level order guarantees each vertex is expanded only after every edge
// into it has been seen.
//
// A vertex's level is its longest-path depth from the in-degree-0
// sources (Kahn's algorithm), the only leveling any graph gets — staged
// constructions, mirrors and the wrapped zoo alike. The order is the
// stable counting sort of vertices by level. Every staged construction
// lays its vertex IDs out level by level, so its order is the identity:
// Order() returns nil and the sweeps visit plain vertex IDs.
//
// Cyclic graphs have no leveling: Graph.Levels returns an error. The
// routing guide then falls back to unguided probing; core never meets
// one, because WrapGraph checks and Build's 𝒩 is acyclic. A Levels is
// immutable and shared; do not mutate the returned slices.
type Levels struct {
	level []int32 // per-vertex level
	first []int32 // len NumLevels()+1; order positions first[l]..first[l+1] hold level l
	order []int32 // level-sorted vertex permutation; nil when IDs are level-sorted
}

// NumLevels returns the number of levels (max level + 1; 0 for the empty
// graph). No level below the top is empty: a vertex at level l > 0 has an
// in-neighbor at level l−1.
func (lv *Levels) NumLevels() int { return len(lv.first) - 1 }

// PerVertex returns the per-vertex level array (shared; do not mutate).
func (lv *Levels) PerVertex() []int32 { return lv.level }

// First returns the per-level position ranges (shared; do not mutate):
// positions first[l]..first[l+1] of the traversal order hold the vertices
// of level l, with len(First()) = NumLevels()+1, so first[l+1]−first[l]
// is level l's width. When Sorted() holds, positions are vertex IDs —
// first[l] is the first vertex ID of level l.
func (lv *Levels) First() []int32 { return lv.first }

// Sorted reports whether vertex IDs are already level-sorted, i.e. the
// traversal order is the identity.
func (lv *Levels) Sorted() bool { return lv.order == nil }

// Order returns the level-sorted vertex permutation, or nil when the
// identity (see Sorted). Shared; do not mutate.
func (lv *Levels) Order() []int32 { return lv.order }

// At returns the vertex at traversal position pos.
func (lv *Levels) At(pos int32) int32 {
	if lv.order == nil {
		return pos
	}
	return lv.order[pos]
}

// Levels returns the graph's level assignment, computing it on first use
// (subsequent calls share the cached value), or an error if the graph has
// a directed cycle.
func (g *Graph) Levels() (*Levels, error) {
	g.levelsOnce.Do(func() {
		g.levels, g.levelsErr = computeLevels(g)
	})
	return g.levels, g.levelsErr
}

// computeLevels is Kahn's algorithm with longest-path relaxation: a
// vertex's level is fixed once all its in-edges have been relaxed, so
// levels strictly increase along every edge.
func computeLevels(g *Graph) (*Levels, error) {
	n := g.NumVertices()
	indeg := make([]int32, n)
	for v := range indeg {
		indeg[v] = g.inStart[v+1] - g.inStart[v]
	}
	level := make([]int32, n)
	queue := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := level[v] + 1
		for _, w := range g.outHeads[g.outStart[v]:g.outStart[v+1]] {
			if d > level[w] {
				level[w] = d
			}
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(queue) != n {
		return nil, fmt.Errorf("graph: no leveling: directed cycle detected (%d of %d vertices leveled)", len(queue), n)
	}
	return levelsFromAssignment(level), nil
}

// levelsFromAssignment builds the range and order metadata for a valid
// level assignment, which it retains.
func levelsFromAssignment(level []int32) *Levels {
	n := len(level)
	maxLevel := int32(-1)
	sorted := true
	prev := int32(0)
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
		if l < prev {
			sorted = false
		}
		prev = l
	}
	first := make([]int32, maxLevel+2)
	for _, l := range level {
		first[l+1]++
	}
	for l := int32(0); l <= maxLevel; l++ {
		first[l+1] += first[l]
	}
	lv := &Levels{level: level, first: first}
	if sorted {
		return lv
	}
	// Stable counting sort by level: next[l] is the next free position of
	// level l, so equal-level vertices keep ascending-ID order.
	next := make([]int32, maxLevel+1)
	copy(next, first[:maxLevel+1])
	order := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		l := level[v]
		order[next[l]] = v
		next[l]++
	}
	lv.order = order
	return lv
}

// WordSpan is a half-open range [Lo, Hi) of 64-output lane words; Lo == Hi
// is the empty span. 16-bit bounds keep a per-vertex span array at 4 bytes
// per vertex.
type WordSpan struct{ Lo, Hi uint16 }

// maxSpanWords is the most lane words a WordSpan can address.
const maxSpanWords = 1<<16 - 1

// OutputSpans returns, per vertex v, the lane words that can ever hold an
// output v reaches: output i (its position in Outputs) lives in word i>>6,
// and every output reachable from v along a directed path — v itself
// included — has its word in spans[v]. Faults only remove paths, so any
// per-output reachability words derived from a mask of the graph (the
// routing guide of route.ShardedEngine) stay inside these spans. Spans
// nest along edges: for every edge v→w, spans[w] is empty or lies within
// spans[v].
//
// Computed on first use in one O(E) pass in reverse level order and
// cached (shared; do not mutate). Returns nil when the graph has no
// leveling (a directed cycle) or more outputs than maxSpanWords lane
// words hold.
func (g *Graph) OutputSpans() []WordSpan {
	g.spansOnce.Do(func() {
		if lv, err := g.Levels(); err == nil && len(g.outputs) <= 64*maxSpanWords {
			g.spans = computeOutputSpans(g, lv)
		}
	})
	return g.spans
}

func computeOutputSpans(g *Graph, lv *Levels) []WordSpan {
	spans := make([]WordSpan, g.NumVertices())
	for i, v := range g.outputs {
		w := uint16(i >> 6)
		spans[v] = spans[v].hull(WordSpan{w, w + 1})
	}
	// Reverse level order: every successor sits at a strictly higher
	// level, so its span is final before v's absorbs it.
	for p := int32(len(spans)) - 1; p >= 0; p-- {
		v := lv.At(p)
		for _, w := range g.outHeads[g.outStart[v]:g.outStart[v+1]] {
			spans[v] = spans[v].hull(spans[w])
		}
	}
	return spans
}

// hull returns the smallest span covering s and t.
func (s WordSpan) hull(t WordSpan) WordSpan {
	switch {
	case t.Lo == t.Hi:
		return s
	case s.Lo == s.Hi:
		return t
	}
	return WordSpan{min(s.Lo, t.Lo), max(s.Hi, t.Hi)}
}
