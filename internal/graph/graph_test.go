package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"ftcsn/internal/rng"
)

// diamond builds the 4-vertex diamond: in -> a,b -> out.
func diamond() *Graph {
	b := NewBuilder(4)
	in := b.AddVertex()
	a := b.AddVertex()
	c := b.AddVertex()
	out := b.AddVertex()
	b.AddEdge(in, a)
	b.AddEdge(in, c)
	b.AddEdge(a, out)
	b.AddEdge(c, out)
	b.MarkInput(in)
	b.MarkOutput(out)
	return b.Freeze()
}

func TestBuilderFreezeBasics(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(0) != 2 || g.InDegree(3) != 2 {
		t.Fatalf("degrees wrong: out(0)=%d in(3)=%d", g.OutDegree(0), g.InDegree(3))
	}
	if !g.IsTerminal(0) || !g.IsTerminal(3) || g.IsTerminal(1) {
		t.Fatal("terminal marking wrong")
	}
}

func TestCSRConsistency(t *testing.T) {
	g := diamond()
	// Every edge e in OutEdges(v) must satisfy EdgeFrom(e) == v, and
	// symmetrically for InEdges.
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for _, e := range g.OutEdges(v) {
			if g.EdgeFrom(e) != v {
				t.Fatalf("edge %d in OutEdges(%d) but EdgeFrom=%d", e, v, g.EdgeFrom(e))
			}
		}
		for _, e := range g.InEdges(v) {
			if g.EdgeTo(e) != v {
				t.Fatalf("edge %d in InEdges(%d) but EdgeTo=%d", e, v, g.EdgeTo(e))
			}
		}
	}
}

func TestDepth(t *testing.T) {
	g := diamond()
	d, err := g.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
}

func TestDepthLongestPath(t *testing.T) {
	// in -> a -> out and in -> out directly: depth must be 2, not 1.
	b := NewBuilder(3)
	in := b.AddVertex()
	a := b.AddVertex()
	out := b.AddVertex()
	b.AddEdge(in, a)
	b.AddEdge(a, out)
	b.AddEdge(in, out)
	b.MarkInput(in)
	b.MarkOutput(out)
	g := b.Freeze()
	d, err := g.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
}

func TestDepthDetectsCycle(t *testing.T) {
	b := NewBuilder(2)
	u := b.AddVertex()
	v := b.AddVertex()
	b.AddEdge(u, v)
	b.AddEdge(v, u)
	g := b.Freeze()
	if _, err := g.Depth(); err == nil {
		t.Fatal("Depth on cyclic graph did not error")
	}
}

func TestMirror(t *testing.T) {
	g := diamond()
	m := g.Mirror()
	if m.NumEdges() != g.NumEdges() || m.NumVertices() != g.NumVertices() {
		t.Fatal("mirror changed counts")
	}
	// Edge IDs preserved with reversed endpoints.
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if m.EdgeFrom(e) != g.EdgeTo(e) || m.EdgeTo(e) != g.EdgeFrom(e) {
			t.Fatalf("edge %d not reversed", e)
		}
	}
	// Terminals swapped.
	if m.Inputs()[0] != g.Outputs()[0] || m.Outputs()[0] != g.Inputs()[0] {
		t.Fatal("mirror did not swap terminals")
	}
	// Levels reversed: the input (level 0) becomes level 2.
	mlv, err := m.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if l := mlv.PerVertex()[g.Inputs()[0]]; l != 2 {
		t.Fatalf("mirror level of the input = %d", l)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorInvolution(t *testing.T) {
	g := diamond()
	mm := g.Mirror().Mirror()
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if mm.EdgeFrom(e) != g.EdgeFrom(e) || mm.EdgeTo(e) != g.EdgeTo(e) {
			t.Fatal("double mirror is not identity on edges")
		}
	}
}

func TestUndirectedDistances(t *testing.T) {
	g := diamond()
	d := g.UndirectedDistances(0)
	want := []int32{0, 1, 1, 2}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], w)
		}
	}
}

func TestUndirectedDistancesIgnoreDirection(t *testing.T) {
	// a -> b <- c: undirected distance a..c is 2 even though no directed path.
	b := NewBuilder(2)
	va := b.AddVertex()
	vb := b.AddVertex()
	vc := b.AddVertex()
	b.AddEdge(va, vb)
	b.AddEdge(vc, vb)
	g := b.Freeze()
	d := g.UndirectedDistances(va)
	if d[vc] != 2 {
		t.Fatalf("dist(a,c) = %d, want 2", d[vc])
	}
}

func TestReachableFromWithMask(t *testing.T) {
	g := diamond()
	// Block vertex 1 (a): out still reachable through 2 (b).
	seen := g.ReachableFrom(0, func(v int32) bool { return v != 1 })
	if !seen[3] {
		t.Fatal("out unreachable with one middle vertex blocked")
	}
	if seen[1] {
		t.Fatal("blocked vertex visited")
	}
	// Block both middles: out unreachable.
	seen = g.ReachableFrom(0, func(v int32) bool { return v != 1 && v != 2 })
	if seen[3] {
		t.Fatal("out reachable with both middles blocked")
	}
}

func TestValidateRejectsBadTerminals(t *testing.T) {
	b := NewBuilder(1)
	u := b.AddVertex()
	v := b.AddVertex()
	b.AddEdge(u, v)
	b.MarkInput(v) // v has in-degree 1: invalid input
	b.MarkOutput(u)
	g := b.Freeze()
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted input with incoming edge")
	}
}

func TestValidateRejectsOverlap(t *testing.T) {
	b := NewBuilder(0)
	v := b.AddVertex()
	b.MarkInput(v)
	b.MarkOutput(v)
	g := b.Freeze()
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted input==output")
	}
}

func TestDOT(t *testing.T) {
	out := diamond().DOT("d")
	if !strings.Contains(out, "digraph d") || !strings.Contains(out, "v0 -> v1") {
		t.Fatalf("DOT output malformed: %q", out)
	}
}

func TestComputeStats(t *testing.T) {
	s := ComputeStats(diamond())
	if s.Edges != 4 || s.Depth != 2 || s.MaxDegree != 2 || s.Inputs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "E=4") {
		t.Fatalf("stats string = %q", s.String())
	}
}

// Property test: on random DAGs (edges always from lower to higher ID),
// Levels succeeds and its order respects all edges, and Depth is bounded
// by the vertex count.
func TestQuickRandomDAG(t *testing.T) {
	r := rng.New(1234)
	f := func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		n := 2 + rr.Intn(40)
		b := NewBuilder(n * 2)
		b.AddVertices(n)
		m := rr.Intn(3 * n)
		for i := 0; i < m; i++ {
			u := rr.Intn(n - 1)
			v := u + 1 + rr.Intn(n-u-1)
			b.AddEdge(int32(u), int32(v))
		}
		b.MarkInput(0)
		b.MarkOutput(int32(n - 1))
		g := b.Freeze()
		lv, err := g.Levels()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i := range pos {
			pos[lv.At(int32(i))] = i
		}
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if pos[g.EdgeFrom(e)] >= pos[g.EdgeTo(e)] {
				return false
			}
		}
		d, err := g.Depth()
		return err == nil && d >= 0 && d < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	b := NewBuilder(1)
	b.AddVertex()
	b.AddEdge(0, 5)
}

func TestCSRAdjunctArrays(t *testing.T) {
	g := diamond()
	start, edges, heads := g.CSROut()
	if len(start) != g.NumVertices()+1 {
		t.Fatalf("CSROut start length %d", len(start))
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for idx := start[v]; idx < start[v+1]; idx++ {
			e := edges[idx]
			if g.EdgeFrom(e) != v {
				t.Fatalf("out slot %d: edge %d leaves %d, not %d", idx, e, g.EdgeFrom(e), v)
			}
			if heads[idx] != g.EdgeTo(e) {
				t.Fatalf("out slot %d: head %d != EdgeTo %d", idx, heads[idx], g.EdgeTo(e))
			}
			if g.OutSlot(e) != idx {
				t.Fatalf("OutSlot(%d) = %d, want %d", e, g.OutSlot(e), idx)
			}
		}
	}
	inStart, inEdges, tails := g.CSRIn()
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for idx := inStart[v]; idx < inStart[v+1]; idx++ {
			e := inEdges[idx]
			if g.EdgeTo(e) != v {
				t.Fatalf("in slot %d: edge %d enters %d, not %d", idx, e, g.EdgeTo(e), v)
			}
			if tails[idx] != g.EdgeFrom(e) {
				t.Fatalf("in slot %d: tail %d != EdgeFrom %d", idx, tails[idx], g.EdgeFrom(e))
			}
		}
	}
}

func TestBuildAllowedBits(t *testing.T) {
	g := diamond()
	m := g.NumEdges()
	edgeOK := make([]bool, m)
	vertexOK := make([]bool, g.NumVertices())
	for e := range edgeOK {
		edgeOK[e] = e%2 == 0
	}
	for v := range vertexOK {
		vertexOK[v] = v%3 != 0
	}
	// A slot is blocked by its switch or by either endpoint, with or
	// without an edge mask.
	for _, eok := range [][]bool{edgeOK, nil} {
		out := g.BuildOutAllowed(eok, vertexOK, nil)
		for e := int32(0); e < int32(m); e++ {
			w, u := g.EdgeTo(e), g.EdgeFrom(e)
			want := AdjBlocked * b2u((eok != nil && !eok[e]) || !vertexOK[u] || !vertexOK[w])
			want |= AdjTerminal * b2u(g.IsTerminal(w))
			if got := out[g.OutSlot(e)]; got != want {
				t.Fatalf("edge %d (edge mask %v): OutAllowed %#x, want %#x", e, eok != nil, got, want)
			}
		}
	}
	// Nil masks allow everything.
	for i, b := range g.BuildOutAllowed(nil, nil, nil) {
		if b&AdjBlocked != 0 {
			t.Fatalf("nil masks: slot %d blocked", i)
		}
	}
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// checkLevels verifies the Levels contract on g: every edge strictly
// increases level, First() brackets the traversal order by level, and the
// order (identity when Sorted) is a permutation that is level-sorted and
// ID-stable within a level.
func checkLevels(t *testing.T, g *Graph, lv *Levels) {
	t.Helper()
	n := int32(g.NumVertices())
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		u, v := g.EdgeFrom(e), g.EdgeTo(e)
		if lv.PerVertex()[u] >= lv.PerVertex()[v] {
			t.Fatalf("edge %d: level %d -> %d not strictly increasing", e, lv.PerVertex()[u], lv.PerVertex()[v])
		}
	}
	first := lv.First()
	if len(first) != lv.NumLevels()+1 || first[0] != 0 || first[len(first)-1] != n {
		t.Fatalf("first = %v for n=%d levels=%d", first, n, lv.NumLevels())
	}
	seen := make([]bool, n)
	prevLevel := int32(-1)
	prevID := int32(-1)
	for pos := int32(0); pos < n; pos++ {
		v := lv.At(pos)
		if seen[v] {
			t.Fatalf("order repeats vertex %d", v)
		}
		seen[v] = true
		l := lv.PerVertex()[v]
		if pos < first[l] || pos >= first[l+1] {
			t.Fatalf("vertex %d (level %d) at position %d outside [%d,%d)", v, l, pos, first[l], first[l+1])
		}
		if l < prevLevel || (l == prevLevel && v < prevID) {
			t.Fatalf("order not level-sorted ID-stable at position %d", pos)
		}
		prevLevel, prevID = l, v
	}
	if lv.Sorted() != (lv.Order() == nil) {
		t.Fatal("Sorted/Order disagree")
	}
}

func TestLevelsStagedSorted(t *testing.T) {
	// IDs laid out in the stage order a caller might intend — stage 0:
	// v0,v1; stage 1: v2,v3,v4; stage 3: v5 — but the levels are what the
	// switches say: the 1→3 skip closes up (v5 sits on level 2), and v3,
	// with no switch in, sits on level 0, so the order moves it forward.
	b := NewBuilder(8)
	v0 := b.AddVertex()
	v1 := b.AddVertex()
	v2 := b.AddVertex()
	b.AddVertex()
	v4 := b.AddVertex()
	v5 := b.AddVertex()
	b.AddEdge(v0, v2)
	b.AddEdge(v1, v4)
	b.AddEdge(v2, v5)
	g := b.Freeze()
	lv, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	equal := func(name string, got, want []int32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	equal("levels", lv.PerVertex(), []int32{0, 0, 1, 0, 1, 2})
	equal("first", lv.First(), []int32{0, 3, 5, 6})
	equal("order", lv.Order(), []int32{0, 1, 3, 2, 4, 5})
	checkLevels(t, g, lv)
	// Idempotent (cached) and shared.
	again, err := g.Levels()
	if err != nil || again != lv {
		t.Fatal("Levels not cached")
	}
}

func TestLevelsLongestPath(t *testing.T) {
	// Diamond with a long arm; IDs deliberately not level-sorted.
	b := NewBuilder(8)
	sink := b.AddVertex() // v0, level 3
	src := b.AddVertex()  // v1, level 0
	a := b.AddVertex()    // v2, level 1
	c := b.AddVertex()    // v3, level 1
	d := b.AddVertex()    // v4, level 2 (via a)
	b.AddEdge(src, a)
	b.AddEdge(src, c)
	b.AddEdge(a, d)
	b.AddEdge(d, sink)
	b.AddEdge(c, sink) // short arm: sink's level is the LONGEST path, 3
	g := b.Freeze()
	lv, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	wantLevel := []int32{3, 0, 1, 1, 2}
	for v, w := range wantLevel {
		if lv.PerVertex()[int32(v)] != w {
			t.Fatalf("vertex %d: level %d, want %d", v, lv.PerVertex()[int32(v)], w)
		}
	}
	if lv.Sorted() {
		t.Fatal("v0 has the top level but the lowest ID; order must permute")
	}
	checkLevels(t, g, lv)
}

func TestLevelsStagedUnsorted(t *testing.T) {
	// IDs against the switch direction: the traversal order permutes.
	b := NewBuilder(1)
	hi := b.AddVertex()
	lo := b.AddVertex()
	b.AddEdge(lo, hi)
	g := b.Freeze()
	lv, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	if lv.PerVertex()[hi] != 1 || lv.PerVertex()[lo] != 0 || lv.Sorted() {
		t.Fatalf("levels = %v sorted=%v", lv.PerVertex(), lv.Sorted())
	}
	checkLevels(t, g, lv)
}

func TestLevelsNonMonotoneStagesFallBack(t *testing.T) {
	// Two vertices a caller might place on one stage, joined by a switch:
	// the switch puts them on consecutive levels.
	b := NewBuilder(1)
	u := b.AddVertex()
	v := b.AddVertex()
	b.AddEdge(u, v)
	g := b.Freeze()
	lv, err := g.Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	if lv.PerVertex()[u] != 0 || lv.PerVertex()[v] != 1 {
		t.Fatalf("levels = %v", lv.PerVertex())
	}
	checkLevels(t, g, lv)
}

func TestLevelsCycleError(t *testing.T) {
	b := NewBuilder(2)
	u := b.AddVertex()
	v := b.AddVertex()
	b.AddEdge(u, v)
	b.AddEdge(v, u)
	g := b.Freeze()
	if _, err := g.Levels(); err == nil {
		t.Fatal("cyclic graph leveled")
	}
	// The error is cached too.
	if _, err := g.Levels(); err == nil {
		t.Fatal("cached result lost the error")
	}
}

func TestLevelsEmptyGraph(t *testing.T) {
	lv, err := NewBuilder(0).Freeze().Levels()
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	if lv.NumLevels() != 0 || !lv.Sorted() {
		t.Fatalf("empty graph: levels=%d sorted=%v", lv.NumLevels(), lv.Sorted())
	}
}

func TestLevelsMirrorDerived(t *testing.T) {
	// Chain: the mirror keeps vertex IDs, so its levels DEcrease in ID
	// order — the reflected assignment, with a permuted traversal order.
	b := NewBuilder(3)
	in := b.AddVertex()
	mid := b.AddVertex()
	out := b.AddVertex()
	b.AddEdge(in, mid)
	b.AddEdge(mid, out)
	b.MarkInput(in)
	b.MarkOutput(out)
	g := b.Freeze()
	m := g.Mirror()
	mlv, err := m.Levels()
	if err != nil {
		t.Fatalf("mirror Levels: %v", err)
	}
	lv, _ := g.Levels()
	maxLevel := int32(lv.NumLevels() - 1)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if mlv.PerVertex()[v] != maxLevel-lv.PerVertex()[v] {
			t.Fatalf("vertex %d: mirror level %d, want %d", v, mlv.PerVertex()[v], maxLevel-lv.PerVertex()[v])
		}
	}
	if mlv.Sorted() {
		t.Fatal("mirror of a forward chain should need a permutation")
	}
	checkLevels(t, m, mlv)

	// Kahn levels a mirror from its own sources, like any graph. With a
	// dead-end branch x→w beside the chain x→y→z, reflecting the
	// original's levels would put w on level 1; in the mirror w has no
	// switch in, so it sits on level 0 beside z.
	b = NewBuilder(3)
	x := b.AddVertex()
	y := b.AddVertex()
	z := b.AddVertex()
	w := b.AddVertex()
	b.AddEdge(x, y)
	b.AddEdge(y, z)
	b.AddEdge(x, w)
	b.MarkInput(x)
	b.MarkOutput(z)
	um := b.Freeze().Mirror()
	ulv, err := um.Levels()
	if err != nil {
		t.Fatalf("branched mirror Levels: %v", err)
	}
	for v, want := range []int32{2, 1, 0, 0} {
		if got := ulv.PerVertex()[v]; got != want {
			t.Fatalf("branched mirror: vertex %d on level %d, want %d", v, got, want)
		}
	}
	checkLevels(t, um, ulv)
}

// TestOutputSpansMatchReachability: on random DAGs with hundreds of
// outputs (so spans run across several lane words), vertex IDs out of
// level order, and some outputs with out-edges, every vertex's span is
// exactly the hull of the lane words of the outputs it reaches (itself
// included), and spans nest along every edge.
func TestOutputSpansMatchReachability(t *testing.T) {
	r := rng.New(0x5BA25)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(400)
		perm := r.Perm(n) // perm[i] is the vertex at topological rank i
		b := NewBuilder(3 * n)
		b.AddVertices(n)
		for i := 3 * n * r.Intn(4) / 4; i > 0; i-- {
			u := r.Intn(n - 1)
			v := u + 1 + r.Intn(n-u-1)
			b.AddEdge(int32(perm[u]), int32(perm[v]))
		}
		for v := 0; v < n; v++ {
			if r.Intn(3) > 0 {
				b.MarkOutput(int32(v))
			} else {
				b.MarkInput(int32(v))
			}
		}
		g := b.Freeze()
		spans := g.OutputSpans()
		if len(spans) != n {
			t.Fatalf("trial %d: %d spans for %d vertices", trial, len(spans), n)
		}
		word := make([]int, n)
		for v := range word {
			word[v] = -1
		}
		for i, v := range g.Outputs() {
			word[v] = i >> 6
		}
		for v := int32(0); v < int32(n); v++ {
			lo, hi := -1, -1
			for w, ok := range g.ReachableFrom(v, nil) {
				if ok && word[w] >= 0 {
					if lo < 0 || word[w] < lo {
						lo = word[w]
					}
					hi = max(hi, word[w]+1)
				}
			}
			want := WordSpan{}
			if lo >= 0 {
				want = WordSpan{uint16(lo), uint16(hi)}
			}
			if spans[v] != want {
				t.Fatalf("trial %d: vertex %d span %+v, reachable outputs span %+v", trial, v, spans[v], want)
			}
		}
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			s, w := spans[g.EdgeFrom(e)], spans[g.EdgeTo(e)]
			if w.Lo != w.Hi && (w.Lo < s.Lo || w.Hi > s.Hi) {
				t.Fatalf("trial %d: edge %d: head span %+v not within tail span %+v", trial, e, w, s)
			}
		}
		if again := g.OutputSpans(); &again[0] != &spans[0] {
			t.Fatalf("trial %d: spans recomputed instead of cached", trial)
		}
	}
}

func TestOutputSpansCycleIsNil(t *testing.T) {
	b := NewBuilder(2)
	x := b.AddVertex()
	y := b.AddVertex()
	b.AddEdge(x, y)
	b.AddEdge(y, x)
	b.MarkInput(x)
	b.MarkOutput(y)
	if spans := b.Freeze().OutputSpans(); spans != nil {
		t.Fatalf("cyclic graph got spans %v", spans)
	}
}
