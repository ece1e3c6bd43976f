// Package hotpath is the ftlint fixture for the hotpath analyzer: Hot is
// the annotated root, helper is reached transitively, package callee is
// reached across the package boundary (statically and through an
// interface) except over a cold edge, Cold proves unannotated code is
// exempt, and the sanctioned arena-append idiom stays silent. A plain
// suppression silences findings but keeps its line's callees hot; a cold
// edge drops its callee but silences nothing.
package hotpath

import (
	"fmt"

	"hotpath/callee"
)

type sink interface{ M() }

type val struct{ x int }

func (v val) M() {}

func take(s sink) {}

func pair(a, b int) int { return a + b }

func variadic(xs ...int) {}

//ftcsn:hotpath fixture root
func Hot(n int, s []int32, name, suffix string, sz callee.Sizer) {
	buf := make([]int32, n) // want "make allocates"
	sl := []int32{1, 2, 3}  // want "slice literal allocates"
	mp := map[int]int{}     // want "map literal allocates"
	p := &val{x: n}         // want "composite literal escapes"
	v := val{x: n}          // value struct literal: no allocation
	f := func() {}          // want "closure literal allocates"

	s = append(s, 1)     // sanctioned: x = append(x, ...)
	s = append(s[:0], 2) // sanctioned: arena rewind form
	t := append(s, 3)    // want "append outside"

	go helper(n) // want "go statement allocates"

	fmt.Println(n) // want "fmt.Println allocates"

	take(v)          // want "interface argument boxes"
	take(p)          // pointers fit the interface word: no finding
	iface := sink(v) // want "conversion to interface boxes"

	variadic(n, n) // want "variadic call allocates"
	_ = pair(n, n) // plain call: no finding

	full := name + suffix // want "string concatenation allocates"
	const prefix = "a" + "b"

	//ftlint:ignore hotpath fixture: proves the suppression is honored on the next line
	quiet := make([]int, n)

	_ = callee.Static(n) // the closure follows the call into package callee
	_ = sz.Size()        // and resolves the interface call to (*callee.Box).Size
	//ftlint:ignore hotpath fixture: silences the make below, yet the closure still enters callee.Also
	_ = callee.Also(make([]int, n))
	//ftlint:ignore hotpath cold edge: fixture, so the closure does not enter callee.Block
	_ = callee.Block(make([]int, n)) // want "make allocates"

	_, _, _, _, _, _, _, _, _ = buf, sl, mp, f, t, iface, full, prefix, quiet
}

// helper has no annotation but is called from Hot, so the same-package
// transitive closure checks it too.
func helper(n int) {
	_ = new(int) // want "new allocates"
}

// Cold is not annotated and not reachable from a hotpath root: anything
// goes.
func Cold(n int) []int {
	return make([]int, n)
}
