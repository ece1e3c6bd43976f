package expander

import (
	"fmt"
	"math"
	"testing"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

func TestRandomMatchingsRegular(t *testing.T) {
	r := rng.New(1)
	b := RandomMatchings(16, 4, r)
	if b.Degree() != 4 {
		t.Fatalf("out-degree = %d", b.Degree())
	}
	for i, adj := range b.To {
		if len(adj) != 4 {
			t.Fatalf("inlet %d degree %d", i, len(adj))
		}
	}
	for o, d := range b.InDegrees() {
		if d != 4 {
			t.Fatalf("outlet %d in-degree %d", o, d)
		}
	}
	if b.NumEdges() != 64 {
		t.Fatalf("edges = %d", b.NumEdges())
	}
}

func TestRandomMatchingsDeterministic(t *testing.T) {
	a := RandomMatchings(8, 3, rng.New(7))
	b := RandomMatchings(8, 3, rng.New(7))
	for i := range a.To {
		for j := range a.To[i] {
			if a.To[i][j] != b.To[i][j] {
				t.Fatal("same seed, different graphs")
			}
		}
	}
}

func TestGabberGalilRegular(t *testing.T) {
	b := GabberGalil(5)
	if b.T != 25 {
		t.Fatalf("T = %d", b.T)
	}
	if b.Degree() != 5 {
		t.Fatalf("degree = %d", b.Degree())
	}
	for o, d := range b.InDegrees() {
		if d != 5 {
			t.Fatalf("outlet %d in-degree %d (maps must be bijections)", o, d)
		}
	}
}

func TestGabberGalilM1(t *testing.T) {
	b := GabberGalil(1)
	if b.T != 1 || len(b.To[0]) != 5 {
		t.Fatal("degenerate m=1 graph wrong")
	}
}

func TestVerifyExhaustiveHalfSets(t *testing.T) {
	// A degree-4 random bipartite graph on t=12 should expand half-sets
	// beyond t/2 comfortably (expected coverage ≈ 10.5 of 12).
	r := rng.New(42)
	b := RandomMatchings(12, 4, r)
	bad, err := b.VerifyExhaustive(6, 7, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if bad != nil {
		t.Fatalf("degree-4 graph failed (6,7)-expansion on set %v", bad)
	}
}

func TestVerifyExhaustiveDetectsNonExpander(t *testing.T) {
	// The identity matching expands nothing: every c-set sees exactly c.
	b := &Bipartite{T: 6, To: make([][]int32, 6)}
	for i := range b.To {
		b.To[i] = []int32{int32(i)}
	}
	bad, err := b.VerifyExhaustive(3, 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if bad == nil {
		t.Fatal("identity matching passed (3,4)-expansion")
	}
	if len(bad) != 3 {
		t.Fatalf("violating set has size %d", len(bad))
	}
}

func TestVerifyExhaustiveLimit(t *testing.T) {
	b := RandomMatchings(30, 3, rng.New(3))
	if _, err := b.VerifyExhaustive(15, 16, 100); err == nil {
		t.Fatal("limit not enforced")
	}
}

func TestVerifySampled(t *testing.T) {
	r := rng.New(9)
	b := RandomMatchings(64, 4, r)
	min, viol := b.VerifySampled(32, 33, 500, r.Split(1))
	if viol != 0 {
		t.Fatalf("%d violations of (t/2, t/2+1) expansion at d=4", viol)
	}
	want := ExpectedCoverage(64, 32, 4) // ≈ 56.4
	if float64(min) < want-12 {
		t.Fatalf("min sampled neighborhood %d far below expectation %.1f", min, want)
	}
}

func TestAdversarialOnIdentity(t *testing.T) {
	b := &Bipartite{T: 8, To: make([][]int32, 8)}
	for i := range b.To {
		b.To[i] = []int32{int32(i)}
	}
	if got := b.AdversarialMinNeighbors(4); got != 4 {
		t.Fatalf("adversarial on identity = %d, want 4", got)
	}
}

func TestAdversarialUpperBoundsSampled(t *testing.T) {
	r := rng.New(17)
	b := RandomMatchings(32, 3, r)
	c := 16
	adv := b.AdversarialMinNeighbors(c)
	min, _ := b.VerifySampled(c, 0, 300, r.Split(2))
	if adv > min {
		t.Fatalf("adversarial bound %d exceeds sampled minimum %d", adv, min)
	}
}

func TestPaperExpansionRatioAtScaledDegree(t *testing.T) {
	// The paper needs every half-set of inlets to reach ≥ (33.07/64)·t ≈
	// 0.5167·t outlets. Degree 3 is the smallest scaled degree that clears
	// that bar adversarially at t=64 (degree 2 lands right at the
	// boundary: greedy adversarial sets reach only ≈0.51t). This motivates
	// the default DQ=3 per-quarter degree in package core.
	r := rng.New(23)
	tt := 64
	c := 32
	need := int(0.5167*float64(tt)) + 1 // 34
	b3 := RandomMatchings(tt, 3, r)
	if adv := b3.AdversarialMinNeighbors(c); adv < need {
		t.Fatalf("adversarial half-set expansion %d < %d at d=3", adv, need)
	}
	min, viol := b3.VerifySampled(c, need, 400, r.Split(5))
	if viol > 0 {
		t.Fatalf("sampled violations at d=3: %d (min=%d)", viol, min)
	}
	// And d=2 should be strictly weaker than d=3 adversarially.
	b2 := RandomMatchings(tt, 2, r.Split(9))
	if b2.AdversarialMinNeighbors(c) > b3.AdversarialMinNeighbors(c) {
		t.Fatal("d=2 expands better than d=3 adversarially; construction suspect")
	}
}

func TestAddToBuilder(t *testing.T) {
	r := rng.New(5)
	b := RandomMatchings(4, 2, r)
	gb := graph.NewBuilder(8)
	gb.AddVertices(8)
	added := b.AddToBuilder(gb, 0, 4)
	g := gb.Freeze()
	if added != 8 || g.NumEdges() != 8 {
		t.Fatalf("added %d edges", added)
	}
	for v := int32(0); v < 4; v++ {
		if g.OutDegree(v) != 2 || g.InDegree(v) != 0 {
			t.Fatalf("inlet %d degrees wrong", v)
		}
	}
	for v := int32(4); v < 8; v++ {
		if g.InDegree(v) != 2 || g.OutDegree(v) != 0 {
			t.Fatalf("outlet %d degrees wrong", v)
		}
	}
}

func TestAddToBuilderReversed(t *testing.T) {
	r := rng.New(6)
	b := RandomMatchings(4, 2, r)
	gb := graph.NewBuilder(8)
	gb.AddVertices(8)
	b.AddToBuilderReversed(gb, 0, 4)
	g := gb.Freeze()
	for v := int32(0); v < 4; v++ {
		if g.OutDegree(v) != 2 {
			t.Fatalf("reversed: outlet-side vertex %d out-degree %d", v, g.OutDegree(v))
		}
	}
}

func TestSpectralGapRandomVsIdentity(t *testing.T) {
	r := rng.New(31)
	good := RandomMatchings(64, 4, r)
	gap := good.SpectralGap(4, 60, r.Split(3))
	if gap >= 0.99 {
		t.Fatalf("random 4-regular graph has no spectral gap: σ₂=%v", gap)
	}
	// Identity ×4 (four copies of the same matching) has σ₂ = 1.
	ident := &Bipartite{T: 64, To: make([][]int32, 64)}
	for i := range ident.To {
		ident.To[i] = []int32{int32(i), int32(i), int32(i), int32(i)}
	}
	flat := ident.SpectralGap(4, 60, r.Split(4))
	if flat < 0.95 {
		t.Fatalf("identity graph should have σ₂≈1, got %v", flat)
	}
	if gap >= flat {
		t.Fatalf("random graph (%v) not better than identity (%v)", gap, flat)
	}
}

func TestExpectedCoverage(t *testing.T) {
	// c·d edges into t outlets: coverage below both t and c·d.
	v := ExpectedCoverage(100, 50, 2)
	if v <= 50 || v >= 100 {
		t.Fatalf("ExpectedCoverage = %v, want in (50,100)", v)
	}
}

func TestGabberGalilIsExpanding(t *testing.T) {
	// Exhaustive check on t=9 (m=3): every 4-set of inlets sees ≥ 5 outlets.
	b := GabberGalil(3)
	bad, err := b.VerifyExhaustive(4, 5, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if bad != nil {
		t.Fatalf("GabberGalil(3) failed (4,5)-expansion on %v", bad)
	}
}

// Degree returns the (maximum) out-degree.
func (b *Bipartite) Degree() int {
	d := 0
	for _, adj := range b.To {
		if len(adj) > d {
			d = len(adj)
		}
	}
	return d
}

// VerifyExhaustive checks the (c,c′) expansion property over every inlet
// subset of size exactly c. It returns the first violating set, or nil if
// the property holds. The number of subsets C(t,c) must not exceed limit
// (guarding against accidental exponential blowups).
func (b *Bipartite) VerifyExhaustive(c, cPrime int, limit int64) ([]int, error) {
	if c < 1 || c > b.T {
		return nil, fmt.Errorf("expander: c=%d out of range", c)
	}
	if binom(b.T, c) > limit {
		return nil, fmt.Errorf("expander: C(%d,%d) exceeds limit %d", b.T, c, limit)
	}
	set := make([]int, c)
	for i := range set {
		set[i] = i
	}
	mark := make([]bool, b.T)
	for {
		if b.neighborCount(set, mark) < cPrime {
			bad := append([]int(nil), set...)
			return bad, nil
		}
		// Next combination in lexicographic order.
		i := c - 1
		for i >= 0 && set[i] == b.T-c+i {
			i--
		}
		if i < 0 {
			return nil, nil
		}
		set[i]++
		for j := i + 1; j < c; j++ {
			set[j] = set[j-1] + 1
		}
	}
}

// VerifySampled draws `samples` uniform inlet sets of size c and returns
// the smallest neighborhood seen and the number of violations of the c′
// requirement. A zero violation count is evidence, not proof.
func (b *Bipartite) VerifySampled(c, cPrime, samples int, r *rng.RNG) (minNeighbors, violations int) {
	mark := make([]bool, b.T)
	minNeighbors = b.T + 1
	for s := 0; s < samples; s++ {
		set := r.Sample(b.T, c)
		n := b.neighborCount(set, mark)
		if n < minNeighbors {
			minNeighbors = n
		}
		if n < cPrime {
			violations++
		}
	}
	return minNeighbors, violations
}

// ExpectedCoverage returns the expected number of distinct outlets covered
// by a uniform set of c inlets in a random d-regular multigraph:
// t·(1 − (1 − 1/t)^(c·d)). Used to sanity-check the random construction.
func ExpectedCoverage(t, c, d int) float64 {
	return float64(t) * (1 - math.Pow(1-1/float64(t), float64(c*d)))
}

func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	v := int64(1)
	for i := 0; i < k; i++ {
		v = v * int64(n-i) / int64(i+1)
		if v < 0 || v > (1<<62) {
			return 1 << 62
		}
	}
	return v
}

// neighborCount returns |Γ(S)| for the inlet set S (given as indices).
func (b *Bipartite) neighborCount(set []int, mark []bool) int {
	for i := range mark {
		mark[i] = false
	}
	cnt := 0
	for _, i := range set {
		for _, o := range b.To[i] {
			if !mark[o] {
				mark[o] = true
				cnt++
			}
		}
	}
	return cnt
}
