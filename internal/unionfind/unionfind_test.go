package unionfind

import (
	"math"
	"testing"
	"testing/quick"
)

// components counts the roots among elements [0, n).
func components(d *Sparse, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if d.Find(i) == i {
			c++
		}
	}
	return c
}

func TestSingletons(t *testing.T) {
	d := NewSparse(5)
	if c := components(d, 5); c != 5 {
		t.Fatalf("components = %d", c)
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if d.Same(i, j) {
				t.Fatalf("fresh forest: %d and %d joined", i, j)
			}
		}
	}
}

func TestUnionChain(t *testing.T) {
	d := NewSparse(10)
	for i := 0; i < 9; i++ {
		if !d.Union(i, i+1) {
			t.Fatalf("Union(%d,%d) reported no-op", i, i+1)
		}
	}
	if c := components(d, 10); c != 1 {
		t.Fatalf("components = %d after chain", c)
	}
	if !d.Same(0, 9) {
		t.Fatal("0 and 9 not joined")
	}
	if d.Union(3, 7) {
		t.Fatal("Union inside one component reported a merge")
	}
}

func TestReset(t *testing.T) {
	d := NewSparse(4)
	d.Union(0, 1)
	d.Union(2, 3)
	d.Reset()
	if components(d, 4) != 4 || d.Same(0, 1) {
		t.Fatal("Reset did not restore singletons")
	}
}

// TestEpochWraparound drives Reset across the epoch counter's wraparound,
// where stale stamps would otherwise read as current: the pair joined at
// epoch 1 must come back as singletons when the counter wraps to 1 again.
func TestEpochWraparound(t *testing.T) {
	d := NewSparse(4)
	d.Union(0, 1)
	d.cur = math.MaxUint32
	d.Reset()
	if d.cur != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", d.cur)
	}
	if d.Same(0, 1) || components(d, 4) != 4 {
		t.Fatal("wraparound Reset kept a stale union")
	}
	if !d.Union(1, 2) || !d.Same(1, 2) || d.Same(0, 1) {
		t.Fatal("forest unusable after wraparound")
	}
}

// Property: over several Reset rounds on one forest, Union's report and
// Same agree with a naive quadratic relabeling of each round's history.
func TestQuickAgainstNaive(t *testing.T) {
	type op struct{ A, B uint8 }
	const n = 32
	d := NewSparse(n)
	f := func(rounds [][]op) bool {
		for _, ops := range rounds {
			d.Reset()
			naive := make([]int, n)
			for i := range naive {
				naive[i] = i
			}
			for _, o := range ops {
				a, b := int(o.A)%n, int(o.B)%n
				from, to := naive[a], naive[b]
				if d.Union(a, b) != (from != to) {
					return false
				}
				for i := range naive {
					if naive[i] == from {
						naive[i] = to
					}
				}
			}
			comp := map[int]bool{}
			for i := 0; i < n; i++ {
				comp[naive[i]] = true
				for j := 0; j < n; j++ {
					if d.Same(i, j) != (naive[i] == naive[j]) {
						return false
					}
				}
			}
			if components(d, n) != len(comp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
