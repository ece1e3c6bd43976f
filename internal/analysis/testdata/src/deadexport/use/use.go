// Package use is the calling side of the deadexport fixture. It is not
// under internal/, so its own exports are not checked.
package use

import (
	"fmt"

	"deadexport/internal/decl"
)

// Total calls decl.Used directly and Area through the Shape interface.
func Total(shapes []decl.Shape) int {
	n := decl.Used()
	for _, s := range shapes {
		n += s.Area()
	}
	fmt.Println(decl.Square{Side: n})
	return n
}
