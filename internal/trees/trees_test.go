package trees

import (
	"fmt"
	"testing"
	"testing/quick"

	"ftcsn/internal/rng"
)

// star builds a star with c leaves around one center.
func star(c int) *Tree {
	t := NewTree(0)
	center := t.AddVertex()
	for i := 0; i < c; i++ {
		leaf := t.AddVertex()
		t.AddEdge(center, leaf)
	}
	return t
}

func TestStarBasics(t *testing.T) {
	tr := star(5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves()) != 5 || tr.Degree(0) != 5 {
		t.Fatal("star malformed")
	}
}

func TestValidateRejectsDegree2(t *testing.T) {
	tr := NewTree(0)
	a := tr.AddVertex()
	b := tr.AddVertex()
	c := tr.AddVertex()
	tr.AddEdge(a, b)
	tr.AddEdge(b, c) // b has degree 2
	if err := tr.Validate(); err == nil {
		t.Fatal("accepted internal degree-2 vertex")
	}
}

func TestValidateRejectsForest(t *testing.T) {
	tr := NewTree(2) // two isolated vertices
	if err := tr.Validate(); err == nil {
		t.Fatal("accepted disconnected graph")
	}
}

func TestRandomLeafyValid(t *testing.T) {
	r := rng.New(8)
	for _, l := range []int{3, 10, 50, 200} {
		tr := RandomLeafy(l, r)
		if err := tr.Validate(); err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		if got := len(tr.Leaves()); got < l {
			t.Fatalf("l=%d: only %d leaves", l, got)
		}
	}
}

func TestExtractOnStar(t *testing.T) {
	// Star with c leaves: paths of length 2 pair leaves; max matching of
	// edges = ⌊c/2⌋ paths.
	tr := star(6)
	paths := ExtractShortPaths(tr)
	if err := VerifyPaths(tr, paths); err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("star-6 extracted %d paths, want 3", len(paths))
	}
}

func TestExtractOnStarOdd(t *testing.T) {
	tr := star(7)
	paths := ExtractShortPaths(tr)
	if err := VerifyPaths(tr, paths); err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("star-7 extracted %d paths, want 3", len(paths))
	}
}

func TestExtractBinaryCaterpillar(t *testing.T) {
	// Two centers joined, each with 2 leaves: 4 leaves; leaf pairs at each
	// center give 2 paths of length 2.
	tr := NewTree(0)
	c1 := tr.AddVertex()
	c2 := tr.AddVertex()
	tr.AddEdge(c1, c2)
	for i := 0; i < 2; i++ {
		tr.AddEdge(c1, tr.AddVertex())
		tr.AddEdge(c2, tr.AddVertex())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	paths := ExtractShortPaths(tr)
	if err := VerifyPaths(tr, paths); err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("extracted %d paths, want ≥ 2", len(paths))
	}
}

func TestLemma1BoundOnRandomTrees(t *testing.T) {
	r := rng.New(21)
	for _, l := range []int{10, 50, 100, 500, 1000} {
		tr := RandomLeafy(l, r)
		leaves := len(tr.Leaves())
		paths := ExtractShortPaths(tr)
		if err := VerifyPaths(tr, paths); err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		if len(paths) < Lemma1Bound(leaves) {
			t.Fatalf("l=%d: %d paths < guaranteed %d", leaves, len(paths), Lemma1Bound(leaves))
		}
	}
}

func TestRemarkBoundUsuallyMet(t *testing.T) {
	// The improved l/4 bound [L]: our greedy should reach it on most
	// random trees (measured, not guaranteed — this documents the margin).
	r := rng.New(33)
	met := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		tr := RandomLeafy(200, r)
		leaves := len(tr.Leaves())
		paths := ExtractShortPaths(tr)
		if len(paths) >= RemarkBound(leaves) {
			met++
		}
	}
	if met < trials/2 {
		t.Fatalf("l/4 bound met on only %d/%d random trees", met, trials)
	}
}

func TestBadLeavesBound(t *testing.T) {
	r := rng.New(44)
	for _, l := range []int{20, 100, 400} {
		tr := RandomLeafy(l, r)
		leaves := len(tr.Leaves())
		bad := len(BadLeaves(tr))
		if 7*bad > 6*leaves {
			t.Fatalf("l=%d: %d bad leaves exceeds 6l/7", leaves, bad)
		}
	}
}

func TestBadLeavesOnStar(t *testing.T) {
	// Star: every leaf is within distance 2 of another — no bad leaves.
	if len(BadLeaves(star(5))) != 0 {
		t.Fatal("star has bad leaves")
	}
}

func TestDeepTreeHasBadLeaves(t *testing.T) {
	// A "broom": long path of internal degree-3 vertices (each with one
	// pendant... pendant leaves would be close to each other; instead make
	// a binary tree of depth 4: sibling leaves are at distance 2 → good.
	// To manufacture bad leaves, build a spider with legs of length 4:
	// internal path vertices need degree ≥ 3 though. Use a tree where each
	// leg vertex carries a sub-star far away... Simplest bad-leaf witness:
	// complete binary tree of depth d has all leaves at pairwise distance
	// 2 at the bottom — still good. Bad leaves need isolation ≥ 4, which
	// requires degree-2 chains that Lemma 1's hypothesis forbids, OR a
	// leaf hanging off a high-degree hub whose other branches descend ≥ 3
	// more levels before leafing. Build exactly that.
	tr := NewTree(0)
	hub := tr.AddVertex()
	lonely := tr.AddVertex()
	tr.AddEdge(hub, lonely) // candidate bad leaf at the hub
	// Two branches of depth 3 whose leaves are all ≥ 4 away from lonely.
	for b := 0; b < 2; b++ {
		x := tr.AddVertex()
		tr.AddEdge(hub, x)
		// x gets two children, each with two leaf children: depth 3.
		for c := 0; c < 2; c++ {
			y := tr.AddVertex()
			tr.AddEdge(x, y)
			for d := 0; d < 2; d++ {
				tr.AddEdge(y, tr.AddVertex())
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := BadLeaves(tr)
	found := false
	for _, b := range bad {
		if b == lonely {
			found = true
		}
	}
	if !found {
		t.Fatalf("lonely leaf not detected as bad; bad = %v", bad)
	}
}

func TestReduceHandlesHighDegree(t *testing.T) {
	// High-degree star must still extract ⌊c/2⌋ paths after reduction.
	for _, c := range []int{10, 17, 64} {
		tr := star(c)
		paths := ExtractShortPaths(tr)
		if err := VerifyPaths(tr, paths); err != nil {
			t.Fatalf("star-%d: %v", c, err)
		}
		// After degree-3 reduction the star becomes a caterpillar chain;
		// adjacent-slot leaves pair up. Guarantee at least the Lemma bound
		// and at least c/6 in practice.
		if len(paths) < c/6 {
			t.Fatalf("star-%d: only %d paths", c, len(paths))
		}
	}
}

func TestQuickExtractNeverInvalid(t *testing.T) {
	r := rng.New(55)
	f := func(seed uint16) bool {
		tr := RandomLeafy(5+int(seed%300), r.Split(uint64(seed)))
		paths := ExtractShortPaths(tr)
		if VerifyPaths(tr, paths) != nil {
			return false
		}
		return len(paths) >= Lemma1Bound(len(tr.Leaves()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Validate checks that the structure is a single tree (connected, acyclic)
// and that every internal (non-leaf) vertex has degree ≥ 3, Lemma 1's
// hypothesis.
func (t *Tree) Validate() error {
	n := t.NumVertices()
	if n == 0 {
		return fmt.Errorf("trees: empty tree")
	}
	if t.NumEdges() != n-1 {
		return fmt.Errorf("trees: %d edges for %d vertices", t.NumEdges(), n)
	}
	seen := make([]bool, n)
	queue := []int32{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, h := range t.adj[v] {
			if !seen[h.to] {
				seen[h.to] = true
				count++
				queue = append(queue, h.to)
			}
		}
	}
	if count != n {
		return fmt.Errorf("trees: not connected (%d of %d reachable)", count, n)
	}
	for v := range t.adj {
		if d := len(t.adj[v]); d == 2 {
			return fmt.Errorf("trees: internal vertex %d has degree 2", v)
		}
	}
	return nil
}
