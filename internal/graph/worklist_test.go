package graph

import "testing"

// worklistGraph builds a staged diamond ladder: 4 levels of 3 vertices,
// each vertex wired to every vertex of the next level.
func worklistGraph(t *testing.T) (*Graph, *Levels) {
	t.Helper()
	b := NewBuilder(12, 27)
	for l := int32(0); l < 4; l++ {
		b.AddVertices(l, 3)
	}
	for l := int32(0); l < 3; l++ {
		for i := int32(0); i < 3; i++ {
			for j := int32(0); j < 3; j++ {
				b.AddEdge(l*3+i, (l+1)*3+j)
			}
		}
	}
	b.MarkInput(0)
	b.MarkOutput(9)
	g := b.Freeze()
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	return g, lv
}

func TestLevelWorklistDescendingOrder(t *testing.T) {
	g, lv := worklistGraph(t)
	wl := NewLevelWorklist(lv, g.NumVertices())

	wl.Begin()
	// Seed out of level order, with a duplicate.
	for _, v := range []int32{4, 10, 1, 10} {
		wl.Push(v)
	}
	if wl.Push(4) {
		t.Fatal("duplicate push reported as newly added")
	}

	var got []int32
	last := int32(1 << 30)
	for v, ok := wl.Next(); ok; v, ok = wl.Next() {
		if lv.PerVertex()[v] > last {
			t.Fatalf("visited %d (level %d) after level %d", v, lv.PerVertex()[v], last)
		}
		last = lv.PerVertex()[v]
		got = append(got, v)
		// Wake v's predecessors — all strictly lower level.
		for _, e := range g.InEdges(v) {
			wl.Push(g.EdgeFrom(e))
		}
	}
	// 10 (level 3) wakes level 2 (6,7,8); they wake level 1 (3,4,5 — 4
	// seeded); level 1 wakes level 0 (0,1,2 — 1 seeded). Every vertex but
	// the unreached 9 and 11 is visited exactly once.
	seen := map[int32]int{}
	for _, v := range got {
		seen[v]++
	}
	if len(got) != 10 {
		t.Fatalf("visited %d vertices (%v), want 10", len(got), got)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("vertex %d visited %d times", v, n)
		}
	}
	if seen[9] != 0 || seen[11] != 0 {
		t.Fatalf("visited a vertex outside the reverse cone: %v", got)
	}

	// A second round starts clean.
	wl.Begin()
	wl.Push(2)
	count := 0
	for _, ok := wl.Next(); ok; _, ok = wl.Next() {
		count++
	}
	if count != 1 {
		t.Fatalf("second round visited %d vertices, want 1", count)
	}
}

func TestLevelWorklistEpochWraparound(t *testing.T) {
	g, lv := worklistGraph(t)
	wl := NewLevelWorklist(lv, g.NumVertices())
	wl.Begin()
	wl.Push(3)
	for _, ok := wl.Next(); ok; _, ok = wl.Next() {
	}

	// Force the wraparound: the next Begin must clear stale marks so old
	// membership can't leak into the new round.
	wl.epoch = ^uint32(0)
	wl.Begin()
	if wl.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", wl.epoch)
	}
	if !wl.Push(3) {
		t.Fatal("push after wraparound rejected as duplicate")
	}
}

func TestLevelWorklistPushAboveDrainPanics(t *testing.T) {
	g, lv := worklistGraph(t)
	wl := NewLevelWorklist(lv, g.NumVertices())
	wl.Begin()
	wl.Push(3) // level 1
	defer func() {
		if recover() == nil {
			t.Fatal("pushing at the drained level did not panic")
		}
	}()
	wl.Next()
	wl.Push(5) // level 1 again: contract violation
}

// TestLevelWorklistPushAllocFree: with buckets preallocated to level
// widths and epoch-stamped dedup, a warm seed/drain round must not
// allocate.
func TestLevelWorklistPushAllocFree(t *testing.T) {
	g, lv := worklistGraph(t)
	wl := NewLevelWorklist(lv, g.NumVertices())
	round := func() {
		wl.Begin()
		wl.Push(11)
		for v, ok := wl.Next(); ok; v, ok = wl.Next() {
			for _, e := range g.InEdges(v) {
				wl.Push(g.EdgeFrom(e))
			}
		}
	}
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("worklist round allocates %.2f allocs/op, want 0", avg)
	}
}
