// Package unionfind implements a disjoint-set forest with union by rank,
// path halving and an O(1) Reset.
//
// In the random switch failure model of Pippenger & Lin, a closed failure
// contracts the two endpoints of a switch into a single electrical node.
// A set of closed failures therefore partitions the links of a network into
// contracted components; two terminals are "shorted" (Lemma 7 of the paper)
// exactly when they land in the same component. Union-find is the natural
// data structure for that contraction.
package unionfind

// Sparse is a disjoint-set forest whose Reset is O(1): elements are
// lazily re-initialized on first touch after a reset, via epoch stamps.
// It serves workloads that union only a handful of the n elements per
// round — e.g. the closed switches of one Monte-Carlo fault trial, where
// an O(n) reset would dwarf the O(#closed) useful work.
type Sparse struct {
	parent []int32
	rank   []int8
	epoch  []uint32
	cur    uint32
}

// NewSparse returns a forest over elements [0, n), all singletons.
func NewSparse(n int) *Sparse {
	return &Sparse{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		epoch:  make([]uint32, n),
		cur:    1,
	}
}

// Reset returns every element to a singleton component in O(1) (O(n) only
// on the ~4-billion-reset epoch wraparound).
func (d *Sparse) Reset() {
	d.cur++
	if d.cur == 0 {
		for i := range d.epoch {
			d.epoch[i] = 0
		}
		d.cur = 1
	}
}

// touch lazily initializes x for the current epoch.
func (d *Sparse) touch(x int) {
	if d.epoch[x] != d.cur {
		d.epoch[x] = d.cur
		d.parent[x] = int32(x)
		d.rank[x] = 0
	}
}

// Find returns the representative of x's component, with path halving.
func (d *Sparse) Find(x int) int {
	d.touch(x)
	for d.parent[x] != int32(x) {
		d.parent[x] = d.parent[d.parent[x]]
		x = int(d.parent[x])
	}
	return x
}

// Union merges the components of x and y and reports whether they were
// previously distinct.
func (d *Sparse) Union(x, y int) bool {
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
	return true
}

// Same reports whether x and y are in one component.
func (d *Sparse) Same(x, y int) bool { return d.Find(x) == d.Find(y) }
