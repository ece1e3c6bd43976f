package superconc

// Property tests of the superconcentrator construction and its role as
// the weakest class of the paper's hierarchy.

import (
	"testing"
	"testing/quick"

	"ftcsn/internal/fault"
	"ftcsn/internal/maxflow"
	"ftcsn/internal/rng"
)

func TestQuickConstructionSound(t *testing.T) {
	root := rng.New(0x5C)
	f := func(tick uint16) bool {
		r := root.Split(uint64(tick))
		n := 4 + r.Intn(28)
		d := 3 + r.Intn(3)
		nw, err := New(n, d, r.Uint64())
		if err != nil {
			return false
		}
		if nw.G.Validate() != nil {
			return false
		}
		// r=1: every input reaches every output.
		in := nw.G.Inputs()[r.Intn(n)]
		out := nw.G.Outputs()[r.Intn(n)]
		if maxflow.VertexDisjointPaths(nw.G, []int32{in}, []int32{out}) != 1 {
			return false
		}
		// r=n: full saturation.
		return maxflow.VertexDisjointPaths(nw.G, nw.G.Inputs(), nw.G.Outputs()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSampledPropertyAcrossSeeds(t *testing.T) {
	// The Las-Vegas construction must verify across many seeds, not just
	// the lucky ones used elsewhere.
	for seed := uint64(0); seed < 8; seed++ {
		nw, err := New(16, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if v := nw.VerifySampled(60, rng.New(seed+100)); v != 0 {
			t.Fatalf("seed %d: %d sampled violations", seed, v)
		}
	}
}

func TestSuperconcentratorUnderFaults(t *testing.T) {
	// Like every constant-degree network, the superconcentrator dies under
	// random faults as n grows — it is subject to Theorem 1 too (the
	// weakest class is exactly what the lower bound is proved against).
	// NOTE: the construction's direct matching switches join terminals, so
	// a SINGLE closed switch already shorts an input to its partner output
	// — failure scales like 1−(1−ε)^Θ(n) and saturates fast. Keep ε small
	// enough that the small instance usually survives.
	rate := func(n int) float64 {
		nw, err := New(n, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		inst, sc := fault.NewInstance(nw.G), fault.NewScratch(nw.G)
		fails := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			inst.Reinject(fault.Symmetric(0.001), rng.Stream(9, uint64(i)))
			if !inst.SurvivesBasicChecksWith(sc) {
				fails++
			}
		}
		return float64(fails) / trials
	}
	small, large := rate(8), rate(256)
	if large <= small {
		t.Fatalf("failure rate did not grow with n: %v -> %v", small, large)
	}
}

func TestMatchingEdgesPresent(t *testing.T) {
	// The recursion's direct matching input_i → output_i must exist at the
	// top level (it is what serves fixed points cheaply).
	nw, err := New(16, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range nw.G.Inputs() {
		found := false
		for _, e := range nw.G.OutEdges(in) {
			if nw.G.EdgeTo(e) == nw.G.Outputs()[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("matching switch %d missing", i)
		}
	}
}

func TestHubCountIsThreeQuarters(t *testing.T) {
	// Structural: top-level hubs = ⌈3n/4⌉, visible as the out-neighbors of
	// inputs other than the matching partner.
	nw, err := New(16, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	hubSet := map[int32]bool{}
	for i, in := range nw.G.Inputs() {
		for _, e := range nw.G.OutEdges(in) {
			to := nw.G.EdgeTo(e)
			if to != nw.G.Outputs()[i] {
				hubSet[to] = true
			}
		}
	}
	if len(hubSet) != 12 { // 3·16/4
		t.Fatalf("hub count = %d, want 12", len(hubSet))
	}
}
