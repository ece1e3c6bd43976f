// Package unionfind implements disjoint-set forests with union by rank and
// path halving.
//
// In the random switch failure model of Pippenger & Lin, a closed failure
// contracts the two endpoints of a switch into a single electrical node.
// A set of closed failures therefore partitions the links of a network into
// contracted components; two terminals are "shorted" (Lemma 7 of the paper)
// exactly when they land in the same component. Union-find is the natural
// data structure for that contraction.
package unionfind

// DSU is a disjoint-set union structure over elements [0, n).
type DSU struct {
	parent []int32
	rank   []int8
	count  int // number of live components
}

// New returns a DSU with n singleton components.
func New(n int) *DSU {
	d := &DSU{parent: make([]int32, n), rank: make([]int8, n), count: n}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Components returns the current number of disjoint components.
func (d *DSU) Components() int { return d.count }

// Find returns the representative of x's component, with path halving.
func (d *DSU) Find(x int) int {
	for d.parent[x] != int32(x) {
		d.parent[x] = d.parent[d.parent[x]]
		x = int(d.parent[x])
	}
	return x
}

// Union merges the components of x and y and reports whether they were
// previously distinct.
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.rank[rx] < d.rank[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = int32(rx)
	if d.rank[rx] == d.rank[ry] {
		d.rank[rx]++
	}
	d.count--
	return true
}

// Same reports whether x and y are in one component.
func (d *DSU) Same(x, y int) bool { return d.Find(x) == d.Find(y) }

// Reset returns every element to its own singleton component, reusing the
// allocation.
func (d *DSU) Reset() {
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.rank[i] = 0
	}
	d.count = len(d.parent)
}
