// Package decl is the declaring side of the ftlint fixture for the
// deadexport analyzer: each exported name is referenced from package use,
// reached only through an interface, suppressed, or flagged.
package decl

// Used is called from package use.
func Used() int { return helper() }

// helper is unexported: deadexport never looks at it.
func helper() int { return 1 }

// TestOnly is called only from decl_test.go, which the pass does not load.
func TestOnly() int { return 2 } // want "exported decl.TestOnly is referenced by no non-test file"

// Limit is referenced by no file at all.
const Limit = 3 // want "exported decl.Limit is referenced by no non-test file"

// Shape is the interface package use calls Area through.
type Shape interface{ Area() int }

// Square implements Shape; package use never names Area on a Square.
type Square struct{ Side int }

// Area is reached only through a call of Shape.Area: not flagged.
func (s Square) Area() int { return s.Side * s.Side }

// String is called by fmt on the module's behalf (fmt.Stringer): not
// flagged.
func (s Square) String() string { return "square" }

// Perimeter is a method no call reaches, directly or through an interface.
func (s Square) Perimeter() int { return 4 * s.Side } // want "exported decl.Square.Perimeter is referenced by no non-test file"

// Orphan is referenced only by its own method, which does not count.
type Orphan struct{ next *Orphan } // want "exported decl.Orphan is referenced by no non-test file"

func (o *Orphan) last() *Orphan {
	for o.next != nil {
		o = o.next
	}
	return o
}

//ftlint:ignore deadexport fixture: proves a suppressed name is not flagged
func Kept() {}
