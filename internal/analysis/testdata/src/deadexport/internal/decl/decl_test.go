package decl

import "testing"

// TestTestOnly is the only caller of TestOnly. Test files are not loaded,
// so the reference does not count.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
}
