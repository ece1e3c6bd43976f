package reliability

import (
	"math"
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
)

func TestGridPathProbExtremes(t *testing.T) {
	for _, cyclic := range []bool{false, true} {
		p, err := GridPathProb(3, 4, cyclic, 1)
		if err != nil || math.Abs(p-1) > 1e-12 {
			t.Fatalf("p=1: got %v err=%v", p, err)
		}
		p, err = GridPathProb(3, 4, cyclic, 0)
		if err != nil || p != 0 {
			t.Fatalf("p=0: got %v err=%v", p, err)
		}
	}
}

func TestGridPathProbSingleRow(t *testing.T) {
	// l=1: source edge + (w-1) straight edges + sink edge in series.
	for _, w := range []int{1, 2, 5} {
		p := 0.8
		got, err := GridPathProb(1, w, false, p)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(p, float64(w+1))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("w=%d: got %v want %v", w, got, want)
		}
	}
}

func TestGridPathProbSingleStage(t *testing.T) {
	// w=1: l parallel branches of 2 switches each (source edge + sink edge).
	l, p := 3, 0.6
	got, err := GridPathProb(l, 1, false, p)
	if err != nil {
		t.Fatal(err)
	}
	branch := p * p
	want := 1 - math.Pow(1-branch, float64(l))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestGridPathProbMonotoneInP(t *testing.T) {
	prev := -1.0
	for _, p := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
		v, err := GridPathProb(4, 5, true, p)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-12 {
			t.Fatalf("not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestGridPathProbMonotoneInDimensions(t *testing.T) {
	// More rows help (more parallel paths); more stages hurt (longer series).
	p := 0.7
	v3, _ := GridPathProb(3, 4, false, p)
	v5, _ := GridPathProb(5, 4, false, p)
	if v5 < v3 {
		t.Fatalf("adding rows decreased reliability: %v -> %v", v3, v5)
	}
	w4, _ := GridPathProb(3, 4, false, p)
	w8, _ := GridPathProb(3, 8, false, p)
	if w8 > w4 {
		t.Fatalf("adding stages increased reliability: %v -> %v", w4, w8)
	}
}

func TestGridPathProbRejectsBadInput(t *testing.T) {
	if _, err := GridPathProb(0, 3, false, 0.5); err == nil {
		t.Fatal("accepted l=0")
	}
	if _, err := GridPathProb(MaxExactRows+1, 3, false, 0.5); err == nil {
		t.Fatal("accepted oversized l")
	}
	if _, err := GridPathProb(2, 2, false, 1.5); err == nil {
		t.Fatal("accepted p>1")
	}
}

// buildHammock replicates hammock.NewNetwork's topology locally to avoid an
// import cycle (hammock imports reliability).
func buildHammock(l, w int, cyclic bool) *graph.Graph {
	b := graph.NewBuilder(l*w+2, 2*l*(w+1))
	src := b.AddVertex(graph.NoStage)
	base := b.AddVertices(graph.NoStage, l*w)
	at := func(i, j int) int32 { return base + int32(j*l+i) }
	for j := 0; j < w-1; j++ {
		for i := 0; i < l; i++ {
			b.AddEdge(at(i, j), at(i, j+1))
			if cyclic {
				b.AddEdge(at(i, j), at((i+1)%l, j+1))
			} else if i+1 < l {
				b.AddEdge(at(i, j), at(i+1, j+1))
			}
		}
	}
	sink := b.AddVertex(graph.NoStage)
	for i := 0; i < l; i++ {
		b.AddEdge(src, at(i, 0))
		b.AddEdge(at(i, w-1), sink)
	}
	b.MarkInput(src)
	b.MarkOutput(sink)
	return b.Freeze()
}

func TestDPBracketsExactSemantics(t *testing.T) {
	// On a tiny grid, the forward DP must bracket the exact contraction
	// semantics: DP short ≤ exact short, DP open ≥ exact open.
	g := buildHammock(2, 2, true)
	for _, eps := range []float64{0.05, 0.15, 0.25} {
		exOpen, exShort, err := ExactSmallNetwork(g, eps)
		if err != nil {
			t.Fatal(err)
		}
		dpOpen, dpShort, err := GridFailureProbs(2, 2, true, eps)
		if err != nil {
			t.Fatal(err)
		}
		if dpShort > exShort+1e-12 {
			t.Errorf("eps=%v: DP short %v exceeds exact %v", eps, dpShort, exShort)
		}
		if dpOpen < exOpen-1e-12 {
			t.Errorf("eps=%v: DP open %v below exact %v", eps, dpOpen, exOpen)
		}
		// The bracket should be reasonably tight at small eps.
		if eps <= 0.05 && math.Abs(dpOpen-exOpen) > 0.01 {
			t.Errorf("eps=%v: open bracket too loose: DP=%v exact=%v", eps, dpOpen, exOpen)
		}
	}
}

func TestExactMatchesMonteCarlo(t *testing.T) {
	g := buildHammock(2, 2, false)
	eps := 0.2
	exOpen, exShort, err := ExactSmallNetwork(g, eps)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2024)
	inst := fault.NewInstance(g)
	const trials = 20000
	opens, shorts := 0, 0
	for i := 0; i < trials; i++ {
		inst.Reinject(fault.Symmetric(eps), r)
		if in, _ := inst.IsolatedPair(); in >= 0 {
			opens++
		}
		if a, _ := inst.ShortedTerminals(); a >= 0 {
			shorts++
		}
	}
	mcOpen := float64(opens) / trials
	mcShort := float64(shorts) / trials
	tolO := 5 * math.Sqrt(exOpen*(1-exOpen)/trials)
	tolS := 5 * math.Sqrt(exShort*(1-exShort)/trials)
	if math.Abs(mcOpen-exOpen) > tolO+1e-9 {
		t.Errorf("open: MC %v vs exact %v", mcOpen, exOpen)
	}
	if math.Abs(mcShort-exShort) > tolS+1e-9 {
		t.Errorf("short: MC %v vs exact %v", mcShort, exShort)
	}
}

func TestExactSmallNetworkRejects(t *testing.T) {
	g := buildHammock(3, 3, false) // 16 edges > MaxExactEdges
	if _, _, err := ExactSmallNetwork(g, 0.1); err == nil {
		t.Fatal("accepted oversized network")
	}
}

func TestFailurePolynomialVanishingConstant(t *testing.T) {
	// The §3 argument: a working network fails only if some switch fails,
	// so the constant term of the failure polynomial is zero.
	g := buildHammock(2, 2, false)
	counts, err := FailurePolynomial(g, 14)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 {
		t.Fatalf("constant term = %d, want 0", counts[0])
	}
	// And at least one failure pattern must break it (e.g. all open).
	totalPatterns := int64(0)
	for _, c := range counts {
		totalPatterns += c
	}
	if totalPatterns == 0 {
		t.Fatal("no failure pattern breaks the network?")
	}
}

func TestFailurePolynomialMatchesExact(t *testing.T) {
	// Evaluating the polynomial must agree with ExactSmallNetwork up to
	// the double-counted open∧shorted overlap... the polynomial counts the
	// union event directly, so it must match P[open ∪ shorted].
	g := buildHammock(2, 2, true)
	counts, err := FailurePolynomial(g, 14)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.05, 0.15} {
		pPoly := EvalFailurePolynomial(counts, eps)
		// Monte-Carlo the union event.
		r := rng.New(7)
		inst := fault.NewInstance(g)
		fails := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			inst.Reinject(fault.Symmetric(eps), r)
			if !inst.SurvivesBasicChecks() {
				fails++
			}
		}
		mc := float64(fails) / trials
		tol := 5*math.Sqrt(pPoly*(1-pPoly)/trials) + 1e-9
		if math.Abs(mc-pPoly) > tol {
			t.Errorf("eps=%v: poly %v vs MC %v", eps, pPoly, mc)
		}
	}
}

func TestFailurePolynomialRescaling(t *testing.T) {
	// The δ-invariance argument: scaling ε by a factor s < 1 scales every
	// term by at least s (no constant term), so P[fail](sε) ≤ s·P[fail](ε)
	// for s ≤ ... each term scales by s^k ≤ s for k ≥ 1 — but the
	// (1−2ε)^(m−k) factor also changes. Verify the direction numerically.
	g := buildHammock(2, 2, false)
	counts, err := FailurePolynomial(g, 14)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.1
	for _, s := range []float64{0.5, 0.25, 0.1} {
		scaled := EvalFailurePolynomial(counts, s*eps)
		full := EvalFailurePolynomial(counts, eps)
		if scaled > s*full*1.35 { // slack for the (1−2ε)^(m−k) factor shift
			t.Errorf("s=%v: P(sε)=%v not ≲ s·P(ε)=%v", s, scaled, s*full)
		}
	}
}

func TestFailurePolynomialRejects(t *testing.T) {
	g := buildHammock(3, 3, false)
	if _, err := FailurePolynomial(g, 5); err == nil {
		t.Fatal("accepted network above limit")
	}
}

func TestSeriesParallelAlgebra(t *testing.T) {
	sw := TwoTerminal{POpen: 0.1, PShort: 0.2}
	s := sw.Series(2)
	if math.Abs(s.POpen-(1-0.9*0.9)) > 1e-12 || math.Abs(s.PShort-0.04) > 1e-12 {
		t.Fatalf("series = %+v", s)
	}
	p := sw.Parallel(3)
	if math.Abs(p.POpen-0.001) > 1e-12 || math.Abs(p.PShort-(1-math.Pow(0.8, 3))) > 1e-12 {
		t.Fatalf("parallel = %+v", p)
	}
}

func TestSeriesParallelIdentity(t *testing.T) {
	sw := TwoTerminal{POpen: 0.3, PShort: 0.1}
	s, p := sw.Series(1), sw.Parallel(1)
	for _, got := range []TwoTerminal{s, p} {
		if math.Abs(got.POpen-sw.POpen) > 1e-12 || math.Abs(got.PShort-sw.PShort) > 1e-12 {
			t.Fatalf("k=1 composition changed module: %+v", got)
		}
	}
}

func TestAmplifierConverges(t *testing.T) {
	for _, eps := range []float64{0.01, 0.1, 0.2} {
		mod, size, depth, err := SeriesParallelAmplifier(eps, 1e-9, 2)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if mod.POpen >= 1e-9 || mod.PShort >= 1e-9 {
			t.Fatalf("eps=%v: did not reach target: %+v", eps, mod)
		}
		if size < 2 || depth < 1 {
			t.Fatalf("eps=%v: degenerate size/depth %d/%d", eps, size, depth)
		}
	}
}

func TestAmplifierSizePolylog(t *testing.T) {
	// Proposition 1: size should grow polylogarithmically in 1/ε′. Check
	// that halving ε′ multiplies size by a bounded factor.
	eps := 0.1
	_, s1, _, err := SeriesParallelAmplifier(eps, 1e-3, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, _, err := SeriesParallelAmplifier(eps, 1e-6, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, s3, _, err := SeriesParallelAmplifier(eps, 1e-12, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Going from 1e-6 to 1e-12 doubles log(1/ε′); size should grow by at
	// most ~(ratio of squares)·slack, far below e.g. the 1e6 a linear-in-1/ε′
	// growth would give.
	if s3 > 100*s2 || s2 > 100*s1 {
		t.Fatalf("amplifier size growth not polylog: %d, %d, %d", s1, s2, s3)
	}
}

func TestAmplifierRejectsBadEps(t *testing.T) {
	if _, _, _, err := SeriesParallelAmplifier(0.6, 1e-3, 2); err == nil {
		t.Fatal("accepted eps >= 1/2")
	}
	if _, _, _, err := SeriesParallelAmplifier(0.1, 2, 2); err == nil {
		t.Fatal("accepted target >= 1")
	}
	if _, _, _, err := SeriesParallelAmplifier(0.1, 1e-3, 1); err == nil {
		t.Fatal("accepted s=1")
	}
}
