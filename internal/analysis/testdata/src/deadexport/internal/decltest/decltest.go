// Package decltest is test support (its name ends in "test"): its exports
// exist for other packages' tests, so deadexport does not check them.
package decltest

// Helper is referenced by no non-test file, and not flagged.
func Helper() int { return 0 }
