// Package trees implements Lemma 1 / Corollary 1 of Pippenger & Lin and
// its payment-argument diagnostics (Figs. 1–3):
//
//	A tree with l leaves, in which every internal node has degree ≥ 3,
//	contains at least l/42 edge-disjoint paths, each joining two leaves
//	and each having length at most 3.
//
// The lemma is the combinatorial engine of the size lower bound (Lemma 2 /
// Theorem 1): BFS forests around network inputs are turned into many short
// edge-disjoint leaf-leaf paths, each of which closed failures can short
// independently. The remark after the lemma says the constant improves
// from 1/42 to 1/4 with a finer analysis [L]; the experiments measure the
// actual ratio on random trees (E2).
//
// The extraction algorithm follows the proof constructively: reduce
// internal nodes to degree exactly 3 by splitting high-degree nodes into
// chains of virtual nodes, greedily grow a maximal set of edge-disjoint
// leaf-leaf paths of length ≤ 3, and map back (virtual edges contract, so
// mapped paths only get shorter).
package trees

import (
	"fmt"

	"ftcsn/internal/rng"
)

// Tree is an undirected tree with explicit edge IDs.
type Tree struct {
	adj   [][]halfEdge
	edges [][2]int32
}

type halfEdge struct {
	to   int32
	edge int32
}

// NewTree returns a tree with n isolated vertices (edges added later must
// keep it a tree; Validate checks).
func NewTree(n int) *Tree {
	return &Tree{adj: make([][]halfEdge, n)}
}

// AddVertex appends a vertex and returns its ID.
func (t *Tree) AddVertex() int32 {
	t.adj = append(t.adj, nil)
	return int32(len(t.adj) - 1)
}

// AddEdge joins u and v and returns the edge ID.
func (t *Tree) AddEdge(u, v int32) int32 {
	id := int32(len(t.edges))
	t.edges = append(t.edges, [2]int32{u, v})
	t.adj[u] = append(t.adj[u], halfEdge{v, id})
	t.adj[v] = append(t.adj[v], halfEdge{u, id})
	return id
}

// NumVertices returns the vertex count.
func (t *Tree) NumVertices() int { return len(t.adj) }

// NumEdges returns the edge count.
func (t *Tree) NumEdges() int { return len(t.edges) }

// Degree returns the degree of v.
func (t *Tree) Degree(v int32) int { return len(t.adj[v]) }

// Leaves returns all degree-1 vertices.
func (t *Tree) Leaves() []int32 {
	var ls []int32
	for v := range t.adj {
		if len(t.adj[v]) == 1 {
			ls = append(ls, int32(v))
		}
	}
	return ls
}

// RandomLeafy generates a random tree with every internal vertex of degree
// ≥ 3 and at least targetLeaves leaves: starting from a 3-star it
// repeatedly either attaches a new leaf to a random internal vertex or
// expands a random leaf into an internal vertex with two fresh leaves.
func RandomLeafy(targetLeaves int, r *rng.RNG) *Tree {
	if targetLeaves < 3 {
		targetLeaves = 3
	}
	t := NewTree(0)
	center := t.AddVertex()
	var leaves []int32
	var internals []int32
	internals = append(internals, center)
	for i := 0; i < 3; i++ {
		leaf := t.AddVertex()
		t.AddEdge(center, leaf)
		leaves = append(leaves, leaf)
	}
	for len(leaves) < targetLeaves {
		if r.Bernoulli(0.5) {
			// Attach a new leaf to a random internal vertex.
			host := internals[r.Intn(len(internals))]
			leaf := t.AddVertex()
			t.AddEdge(host, leaf)
			leaves = append(leaves, leaf)
		} else {
			// Expand a random leaf into an internal vertex with two
			// children; its degree becomes 1+2 = 3.
			li := r.Intn(len(leaves))
			v := leaves[li]
			leaves[li] = leaves[len(leaves)-1]
			leaves = leaves[:len(leaves)-1]
			internals = append(internals, v)
			for i := 0; i < 2; i++ {
				leaf := t.AddVertex()
				t.AddEdge(v, leaf)
				leaves = append(leaves, leaf)
			}
		}
	}
	return t
}

// LeafPath is an extracted path joining two leaves.
type LeafPath struct {
	A, B  int32   // the two leaf endpoints
	Edges []int32 // original edge IDs, 1 ≤ len ≤ 3
}

// reduced is the degree-3 reduction of a tree: internal vertices of degree
// d > 3 become chains of d−2 degree-3 virtual vertices joined by virtual
// edges (edge ID −1 marks virtual; real edges keep their original IDs).
// orig maps reduced vertices back to original ones (−1 for chain nodes).
type reduced struct {
	adj    [][]halfEdge
	isLeaf []bool
	orig   []int32
}

func reduce(t *Tree) *reduced {
	rd := &reduced{}
	// Map original vertices to their first reduced vertex; high-degree
	// vertices expand into chains lazily.
	n := t.NumVertices()
	first := make([]int32, n)
	for v := 0; v < n; v++ {
		first[v] = int32(len(rd.adj))
		rd.adj = append(rd.adj, nil)
		rd.isLeaf = append(rd.isLeaf, t.Degree(int32(v)) == 1)
		rd.orig = append(rd.orig, int32(v))
		d := t.Degree(int32(v))
		if d > 3 {
			// Chain of d−2 nodes: node j handles attachment slots.
			for j := 1; j < d-2; j++ {
				rd.adj = append(rd.adj, nil)
				rd.isLeaf = append(rd.isLeaf, false)
				rd.orig = append(rd.orig, -1)
				// Virtual edge between consecutive chain nodes.
				a := first[v] + int32(j-1)
				b := first[v] + int32(j)
				rd.adj[a] = append(rd.adj[a], halfEdge{b, -1})
				rd.adj[b] = append(rd.adj[b], halfEdge{a, -1})
			}
		}
	}
	// Attach original edges: vertex v's i-th incident edge goes to chain
	// slot: first node takes 2 slots, middle nodes 1, last node 2.
	slotNode := func(v int32, i int) int32 {
		d := t.Degree(v)
		if d <= 3 {
			return first[v]
		}
		// d > 3: chain of c = d−2 nodes; slots: node 0 → edges 0,1;
		// node j (1..c−2) → edge j+1; node c−1 → edges d−2, d−1.
		c := d - 2
		switch {
		case i <= 1:
			return first[v]
		case i >= d-2:
			return first[v] + int32(c-1)
		default:
			return first[v] + int32(i-1)
		}
	}
	slotIdx := make([]int, n) // next unassigned incidence per vertex
	for id, e := range t.edges {
		u, v := e[0], e[1]
		ru := slotNode(u, slotIdx[u])
		rv := slotNode(v, slotIdx[v])
		slotIdx[u]++
		slotIdx[v]++
		rd.adj[ru] = append(rd.adj[ru], halfEdge{rv, int32(id)})
		rd.adj[rv] = append(rd.adj[rv], halfEdge{ru, int32(id)})
	}
	return rd
}

// ExtractShortPaths returns a maximal set of edge-disjoint leaf-leaf paths
// of length ≤ 3 (measured in original edges), following the proof of
// Lemma 1. The returned set has at least ⌈l/42⌉ paths for every valid
// tree with l ≥ 42... for every valid tree (Lemma 1's guarantee; the
// observed ratio is far better, see experiment E2).
func ExtractShortPaths(t *Tree) []LeafPath {
	rd := reduce(t)
	usedEdge := make([]bool, t.NumEdges())
	usedVirtual := make(map[[2]int32]bool) // virtual edges keyed by endpoints
	var out []LeafPath

	canUse := func(from int32, h halfEdge) bool {
		if h.edge >= 0 {
			return !usedEdge[h.edge]
		}
		a, b := from, h.to
		if a > b {
			a, b = b, a
		}
		return !usedVirtual[[2]int32{a, b}]
	}
	take := func(from int32, h halfEdge) {
		if h.edge >= 0 {
			usedEdge[h.edge] = true
			return
		}
		a, b := from, h.to
		if a > b {
			a, b = b, a
		}
		usedVirtual[[2]int32{a, b}] = true
	}

	// DFS from each leaf over unused reduced edges; on reaching another
	// leaf within the depth budget, claim the path. Two passes — depth 2
	// first, then depth 3 — so sibling leaves pair up before longer paths
	// consume shared edges (this markedly improves the extracted count on
	// caterpillar-like trees while remaining maximal). After both passes
	// the set is maximal: any remaining short leaf pair shares a used edge.
	extract := func(v int32, maxDepth int) bool {
		var walk func(u int32, depth int, hops []halfEdge, froms []int32) bool
		walk = func(u int32, depth int, hops []halfEdge, froms []int32) bool {
			if depth > 0 && rd.isLeaf[u] && u != v {
				// Count only ORIGINAL edges toward the length bound.
				var orig []int32
				for _, h := range hops {
					if h.edge >= 0 {
						orig = append(orig, h.edge)
					}
				}
				if len(orig) == 0 || len(orig) > 3 {
					return false
				}
				for i, h := range hops {
					take(froms[i], h)
				}
				out = append(out, LeafPath{A: rd.orig[v], B: rd.orig[u], Edges: orig})
				return true
			}
			if depth == maxDepth {
				return false
			}
			for _, h := range rd.adj[u] {
				if !canUse(u, h) {
					continue
				}
				// Do not walk back along the edge we arrived on.
				if len(hops) > 0 && h.to == froms[len(froms)-1] {
					continue
				}
				if walk(h.to, depth+1, append(hops, h), append(froms, u)) {
					return true
				}
			}
			return false
		}
		return walk(v, 0, nil, nil)
	}
	claimed := make([]bool, len(rd.adj))
	for _, maxDepth := range []int{2, 3} {
		for v := int32(0); v < int32(len(rd.adj)); v++ {
			if !rd.isLeaf[v] || claimed[v] {
				continue
			}
			if extract(v, maxDepth) {
				claimed[v] = true
			}
		}
	}
	return out
}

// VerifyPaths checks that the extracted set is valid: each path joins two
// distinct leaves, uses 1–3 edges forming a simple path in the tree, and
// no edge appears in two paths.
func VerifyPaths(t *Tree, paths []LeafPath) error {
	used := make(map[int32]bool)
	for pi, p := range paths {
		if p.A == p.B {
			return fmt.Errorf("trees: path %d joins a leaf to itself", pi)
		}
		if t.Degree(p.A) != 1 || t.Degree(p.B) != 1 {
			return fmt.Errorf("trees: path %d endpoint is not a leaf", pi)
		}
		if len(p.Edges) < 1 || len(p.Edges) > 3 {
			return fmt.Errorf("trees: path %d has %d edges", pi, len(p.Edges))
		}
		for _, e := range p.Edges {
			if used[e] {
				return fmt.Errorf("trees: edge %d reused by path %d", e, pi)
			}
			used[e] = true
		}
		// The edge set must form a connected path joining A and B: walk it.
		deg := map[int32]int{}
		for _, e := range p.Edges {
			deg[t.edges[e][0]]++
			deg[t.edges[e][1]]++
		}
		if deg[p.A] != 1 || deg[p.B] != 1 {
			return fmt.Errorf("trees: path %d edges do not terminate at its leaves", pi)
		}
		for v, d := range deg {
			if d > 2 {
				return fmt.Errorf("trees: path %d branches at %d", pi, v)
			}
		}
	}
	return nil
}

// BadLeaves returns the leaves with no other leaf within tree distance 3
// — the "bad" leaves of Fig. 1. The proof shows there are at most 6l/7 of
// them.
func BadLeaves(t *Tree) []int32 {
	var bad []int32
	for _, leaf := range t.Leaves() {
		if nearestLeafWithin(t, leaf, 3) < 0 {
			bad = append(bad, leaf)
		}
	}
	return bad
}

// nearestLeafWithin returns another leaf at distance ≤ maxD from src, or
// −1. BFS bounded by maxD.
func nearestLeafWithin(t *Tree, src int32, maxD int) int32 {
	type qe struct {
		v int32
		d int
	}
	seen := map[int32]bool{src: true}
	queue := []qe{{src, 0}}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if cur.d >= maxD {
			continue
		}
		for _, h := range t.adj[cur.v] {
			if seen[h.to] {
				continue
			}
			seen[h.to] = true
			if t.Degree(h.to) == 1 {
				return h.to
			}
			queue = append(queue, qe{h.to, cur.d + 1})
		}
	}
	return -1
}

// Lemma1Bound returns the guaranteed minimum number of extracted paths for
// a tree with l leaves: ⌊l/42⌋ (the paper's statement is ≥ l/42).
func Lemma1Bound(l int) int { return l / 42 }

// RemarkBound returns the improved l/4 bound the paper attributes to Lin
// [L]; experiment E2 measures which bound random trees actually meet.
func RemarkBound(l int) int { return l / 4 }
