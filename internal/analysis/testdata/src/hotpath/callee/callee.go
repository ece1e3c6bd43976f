// Package callee is the second package of the hotpath fixture: the root
// in package hotpath reaches these functions only across the package
// boundary, by a static call and through an interface.
package callee

// Static is called directly from the root.
func Static(n int) []int {
	return make([]int, n) // want "make allocates .*hotpath.Hot"
}

// Sizer is the interface the root calls through.
type Sizer interface{ Size() int }

// Box implements Sizer; the root never names Box.
type Box struct{ n int }

// Size is reached only through Sizer.Size.
func (b *Box) Size() int {
	_ = new(int) // want "new allocates .*hotpath.Hot"
	return b.n
}

// Also is called on a line whose allocation is suppressed; the
// suppression does not make the call cold.
func Also(xs []int) int {
	_ = new(int) // want "new allocates .*hotpath.Hot"
	return len(xs)
}

// Block is called only on the root's cold edge, so it is never checked.
func Block(xs []int) []int { return make([]int, len(xs)) }

// Unreached allocates, but no root reaches it.
func Unreached(n int) []int { return make([]int, n) }
