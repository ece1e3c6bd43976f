package lowerbound

import (
	"testing"

	"ftcsn/internal/benes"
	"ftcsn/internal/butterfly"
	"ftcsn/internal/core"
	"ftcsn/internal/graph"
)

func TestGoodInputsTwoStars(t *testing.T) {
	// Two inputs joined to a shared hub: distance 2 < 3 → not good at
	// minDist 3; good at minDist 2.
	b := graph.NewBuilder(2)
	i0 := b.AddVertex()
	i1 := b.AddVertex()
	hub := b.AddVertex()
	b.AddEdge(i0, hub)
	b.AddEdge(i1, hub)
	b.MarkInput(i0)
	b.MarkInput(i1)
	b.MarkOutput(hub) // hub as a dummy output to satisfy Validate-ish use
	g := b.Freeze()
	if got := GoodInputs(g, 3); len(got) != 0 {
		t.Fatalf("good at minDist 3: %v", got)
	}
	if got := GoodInputs(g, 2); len(got) != 2 {
		t.Fatalf("good at minDist 2: %v", got)
	}
	if d := MinPairwiseInputDistance(g); d != 2 {
		t.Fatalf("min input distance = %d", d)
	}
}

func TestZoneProfileLine(t *testing.T) {
	// in -> a -> b -> out: from in, B_1 = {in-a}, B_2 = {a-b}, B_3 = {b-out}.
	b := graph.NewBuilder(3)
	in := b.AddVertex()
	va := b.AddVertex()
	vb := b.AddVertex()
	out := b.AddVertex()
	b.AddEdge(in, va)
	b.AddEdge(va, vb)
	b.AddEdge(vb, out)
	b.MarkInput(in)
	b.MarkOutput(out)
	g := b.Freeze()
	zones := ZoneProfile(g, in, 3)
	want := []int{0, 1, 1, 1}
	for h, w := range want {
		if zones[h] != w {
			t.Fatalf("zones = %v, want %v", zones, want)
		}
	}
	if m := MinZoneSize(g, in, 3); m != 1 {
		t.Fatalf("min zone = %d", m)
	}
}

func TestZoneCountsEdgesOnce(t *testing.T) {
	// Parallel switches both count in the same zone.
	b := graph.NewBuilder(2)
	u := b.AddVertex()
	v := b.AddVertex()
	b.AddEdge(u, v)
	b.AddEdge(u, v)
	b.MarkInput(u)
	b.MarkOutput(v)
	g := b.Freeze()
	zones := ZoneProfile(g, u, 1)
	if zones[1] != 2 {
		t.Fatalf("zone 1 = %d, want 2 (parallel switches)", zones[1])
	}
}

func TestBenesZonesAreConstant(t *testing.T) {
	// Beneš: every input's first zone has exactly 2 switches, independent
	// of n — the structural witness that Theorem 1 excludes it.
	for _, k := range []int{3, 5, 7} {
		nw, err := benes.New(k)
		if err != nil {
			t.Fatal(err)
		}
		z := ZoneProfile(nw.G, nw.G.Inputs()[0], 1)
		if z[1] != 2 {
			t.Fatalf("k=%d: first zone = %d", k, z[1])
		}
	}
}

func TestCoreZonesGrowWithL(t *testing.T) {
	// Network 𝒩: the first zone of every input has L = M·4^γ switches,
	// which the paper sets to Θ(log n).
	for _, m := range []int{4, 8} {
		p := core.Params{Nu: 2, Gamma: 0, M: m, DQ: 2, Seed: 1}
		nw, err := core.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		z := ZoneProfile(nw.G, nw.Inputs()[0], 1)
		if z[1] != p.L() {
			t.Fatalf("M=%d: first zone = %d, want %d", m, z[1], p.L())
		}
	}
}

func TestAnalyzeComparesNetworks(t *testing.T) {
	bn, _ := benes.New(4)     // n=16
	bf, _ := butterfly.New(4) // n=16
	nwp := core.Params{Nu: 2, Gamma: 0, M: 8, DQ: 2, Seed: 1}
	nw, err := core.Build(nwp) // n=16
	if err != nil {
		t.Fatal(err)
	}
	cb := Analyze(bn.G)
	cf := Analyze(bf.G)
	cn := Analyze(nw.G)
	if cb.N != 16 || cf.N != 16 || cn.N != 16 {
		t.Fatal("terminal counts wrong")
	}
	// All three exceed the (tiny) Theorem-1 size bound at n=16 — the bound
	// separates asymptotically, not at toy sizes.
	for _, c := range []Certificate{cb, cf, cn} {
		if float64(c.Size) < c.SizeLowerBnd {
			t.Fatalf("size %d below Theorem-1 bound %v", c.Size, c.SizeLowerBnd)
		}
		if c.Depth > 0 && float64(c.Depth) < c.DepthLowerBnd {
			t.Fatalf("depth %d below Theorem-1 depth bound %v", c.Depth, c.DepthLowerBnd)
		}
	}
	// The structural separation: 𝒩's worst zone is L = 8; the baselines'
	// worst zones are 2.
	if cn.MinOfMinZones() <= cb.MinOfMinZones() {
		t.Fatalf("𝒩 zone %d not larger than Beneš zone %d", cn.MinOfMinZones(), cb.MinOfMinZones())
	}
	if cb.MinOfMinZones() != 2 || cf.MinOfMinZones() != 2 {
		t.Fatalf("baseline zones: benes=%d butterfly=%d, want 2", cb.MinOfMinZones(), cf.MinOfMinZones())
	}
}

func TestGoodInputsAllGoodWhenIsolated(t *testing.T) {
	// Disjoint input/output pairs: inputs mutually unreachable → all good.
	b := graph.NewBuilder(2)
	i0 := b.AddVertex()
	o0 := b.AddVertex()
	i1 := b.AddVertex()
	o1 := b.AddVertex()
	b.AddEdge(i0, o0)
	b.AddEdge(i1, o1)
	b.MarkInput(i0)
	b.MarkInput(i1)
	b.MarkOutput(o0)
	b.MarkOutput(o1)
	g := b.Freeze()
	if got := GoodInputs(g, 100); len(got) != 2 {
		t.Fatalf("good inputs = %v", got)
	}
	if d := MinPairwiseInputDistance(g); d != -1 {
		t.Fatalf("distance = %d, want -1", d)
	}
}
