package core

import (
	"strings"
	"testing"

	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/netsim"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
)

func testParams(nu int) Params {
	return Params{Nu: nu, Gamma: 0, M: 4, DQ: 3, Seed: 7}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(2).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Nu: 0, M: 4, DQ: 2},
		{Nu: 1, Gamma: -1, M: 4, DQ: 2},
		{Nu: 1, M: 0, DQ: 2},
		{Nu: 1, M: 4, DQ: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("accepted %+v", p)
		}
	}
}

func TestPaperGamma(t *testing.T) {
	// γ = ⌈log₄(34ν)⌉: 34·1=34 → 4³=64 ≥ 34 → γ=3; 34·3=102 → 4⁴=256 → γ=4.
	if g := PaperGamma(1); g != 3 {
		t.Fatalf("PaperGamma(1) = %d, want 3", g)
	}
	if g := PaperGamma(3); g != 4 {
		t.Fatalf("PaperGamma(3) = %d, want 4", g)
	}
	for nu := 1; nu <= 8; nu++ {
		g := PaperGamma(nu)
		if pow4(g) < 34*nu {
			t.Fatalf("nu=%d: 4^γ=%d < 34ν", nu, pow4(g))
		}
		if g > 0 && pow4(g-1) >= 34*nu {
			t.Fatalf("nu=%d: γ=%d not minimal", nu, g)
		}
		// Paper: 136ν ≥ 4^γ ≥ 34ν.
		if pow4(g) > 136*nu {
			t.Fatalf("nu=%d: 4^γ=%d > 136ν", nu, pow4(g))
		}
	}
}

func TestBuildMatchesAccounting(t *testing.T) {
	for nu := 1; nu <= 3; nu++ {
		p := testParams(nu)
		nw, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		acct := Accounting(p)
		if nw.G.NumEdges() != acct.Edges {
			t.Fatalf("nu=%d: edges %d != formula %d", nu, nw.G.NumEdges(), acct.Edges)
		}
		if nw.G.NumVertices() != acct.Vertices {
			t.Fatalf("nu=%d: vertices %d != formula %d", nu, nw.G.NumVertices(), acct.Vertices)
		}
		d, err := nw.G.Depth()
		if err != nil {
			t.Fatal(err)
		}
		if d != acct.Depth || d != 4*nu {
			t.Fatalf("nu=%d: depth %d, want %d", nu, d, 4*nu)
		}
		if err := nw.G.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// stageStarts returns the first vertex ID of each stage of nw, read off
// the graph's leveling: Build numbers vertices stage by stage, and its
// levels are its stages over level-sorted IDs.
func stageStarts(t *testing.T, nw *Network) []int32 {
	t.Helper()
	lv, err := nw.G.Levels()
	if err != nil || !lv.Sorted() {
		t.Fatalf("no level-sorted leveling (err %v)", err)
	}
	return lv.First()
}

func TestBuildStageStructure(t *testing.T) {
	p := testParams(2)
	nw, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	n, L := p.N(), p.L()
	first := stageStarts(t, nw)
	if len(first) != 10 {
		t.Fatalf("stages = %d", len(first)-1)
	}
	size := func(s int) int { return int(first[s+1] - first[s]) }
	if size(0) != n || size(8) != n {
		t.Fatal("terminal stage sizes wrong")
	}
	for s := 1; s < 8; s++ {
		if size(s) != n*L {
			t.Fatalf("stage %d size = %d, want %d", s, size(s), n*L)
		}
	}
}

func TestBuildDegrees(t *testing.T) {
	p := testParams(2) // nu=2: stages 0..8, grids 1..2 and 6..7, core 2..6
	nw, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	g := nw.G
	L := p.L()
	first := stageStarts(t, nw)
	// Inputs: out-degree L, in-degree 0.
	for _, in := range nw.Inputs() {
		if g.OutDegree(in) != L || g.InDegree(in) != 0 {
			t.Fatalf("input degrees: out=%d in=%d", g.OutDegree(in), g.InDegree(in))
		}
	}
	// Outputs: in-degree L.
	for _, out := range nw.Outputs() {
		if g.InDegree(out) != L || g.OutDegree(out) != 0 {
			t.Fatalf("output degrees: in=%d out=%d", g.InDegree(out), g.OutDegree(out))
		}
	}
	// Grid interior (stage 1): in-degree 1 (from input), out-degree 2.
	v := first[1]
	if g.InDegree(v) != 1 || g.OutDegree(v) != 2 {
		t.Fatalf("stage-1 vertex degrees: in=%d out=%d", g.InDegree(v), g.OutDegree(v))
	}
	// Stage ν (=2): in-degree 2 from grid (the paper's "vertices on stage ν
	// (in-degree 2)"), out-degree 4·DQ into the expanders.
	v = first[2]
	if g.InDegree(v) != 2 || g.OutDegree(v) != 4*p.DQ {
		t.Fatalf("stage-ν vertex degrees: in=%d out=%d", g.InDegree(v), g.OutDegree(v))
	}
	// Middle stage (2ν=4): in/out 4·DQ.
	v = first[4]
	if g.InDegree(v) != 4*p.DQ || g.OutDegree(v) != 4*p.DQ {
		t.Fatalf("middle vertex degrees: in=%d out=%d", g.InDegree(v), g.OutDegree(v))
	}
	// Stage 3ν (=6): in-degree 4·DQ, out-degree 2 into the output grid.
	v = first[6]
	if g.InDegree(v) != 4*p.DQ || g.OutDegree(v) != 2 {
		t.Fatalf("stage-3ν vertex degrees: in=%d out=%d", g.InDegree(v), g.OutDegree(v))
	}
}

func TestBuildNu1(t *testing.T) {
	nw, err := Build(testParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if first := stageStarts(t, nw); len(first) != 6 {
		t.Fatalf("nu=1 stages = %d", len(first)-1)
	}
	d, _ := nw.G.Depth()
	if d != 4 {
		t.Fatalf("nu=1 depth = %d", d)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for e := int32(0); e < int32(a.G.NumEdges()); e++ {
		if a.G.EdgeFrom(e) != b.G.EdgeFrom(e) || a.G.EdgeTo(e) != b.G.EdgeTo(e) {
			t.Fatal("same seed built different networks")
		}
	}
}

// TestBuildRefusesHuge: sizes past MaxBuildEdges are refused, including
// those whose switch count wraps int — 0 switches at ν=30, n = 0 from
// ν=32 on, a huge M, γ or DQ — which must not be built from the wrapped
// count.
func TestBuildRefusesHuge(t *testing.T) {
	for _, p := range []Params{
		PaperParams(4),
		DefaultParams(30),
		DefaultParams(32),
		{Nu: 2, M: 2_000_000_000_000_000_000, DQ: 3, Seed: 1},
		{Nu: 2, Gamma: 40, M: 8, DQ: 3, Seed: 1},
		{Nu: 1, M: 8, DQ: 1 << 62, Seed: 1},
	} {
		if _, err := Build(p); err == nil {
			t.Fatalf("Build(%+v) succeeded past MaxBuildEdges", p)
		}
	}
}

// TestWrapGraphRefusesSwitchOutOfOutput: on the chain
// input→a→b→c→m→o1→v→o2 the certificate would count the middle vertex's
// path to o2 through output o1, which no circuit may use, so WrapGraph
// refuses the graph with graph.Validate's reason.
func TestWrapGraphRefusesSwitchOutOfOutput(t *testing.T) {
	b := graph.NewBuilder(7)
	b.AddVertices(8)
	b.MarkInput(0)
	b.MarkOutput(5)
	b.MarkOutput(7)
	for v := int32(0); v < 7; v++ {
		b.AddEdge(v, v+1)
	}
	_, err := WrapGraph(b.Freeze())
	if err == nil || !strings.Contains(err.Error(), "output 5 has out-degree 1") {
		t.Fatalf("WrapGraph error = %v, want graph.Validate's out-degree refusal", err)
	}
}

func TestMirrorSymmetryOfEdgeCounts(t *testing.T) {
	// Per-transition edge counts must be symmetric around the middle stage.
	p := testParams(2)
	nw, _ := Build(p)
	g := nw.G
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	stage := lv.PerVertex()
	counts := make([]int, lv.NumLevels()-1)
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		counts[stage[g.EdgeFrom(e)]]++
	}
	for s := 0; s < len(counts); s++ {
		mirror := len(counts) - 1 - s
		if counts[s] != counts[mirror] {
			t.Fatalf("transition %d has %d edges but mirror %d has %d", s, counts[s], mirror, counts[mirror])
		}
	}
}

func TestHealthyMajorityAccess(t *testing.T) {
	nw, err := Build(testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	ac := NewAccessChecker(nw)
	rep := nw.MajorityAccess(ac, RepairMasks(fault.NewInstance(nw.G)))
	if !rep.OK {
		t.Fatalf("fault-free network lacks majority access: min in=%d out=%d of %d",
			minOf(rep.InputAccess), minOf(rep.OutputAccess), rep.MiddleSize)
	}
	// Fault-free network: every input should reach the ENTIRE middle
	// stage (expanders cover every quarter).
	for i, c := range rep.InputAccess {
		if c != rep.MiddleSize {
			t.Fatalf("input %d reaches %d of %d middle vertices", i, c, rep.MiddleSize)
		}
	}
}

// TestGridAccessHealthy is Lemma 3's measurement on a healthy network: an
// input reaches every row of its grid Φ at the grid's last stage ν. Grids
// are disjoint before stage ν, so the oracle's forward count to stage ν
// is exactly this.
func TestGridAccessHealthy(t *testing.T) {
	nw, _ := Build(testParams(2))
	c := newAccessOracle(nw).count(nw.Inputs()[0], int32(nw.P.Nu), true, Masks{})
	if c != nw.P.L() {
		t.Fatalf("healthy grid access = %d, want %d", c, nw.P.L())
	}
}

func TestHealthyChurnNeverBlocks(t *testing.T) {
	nw, err := Build(testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	rt := route.NewRouter(nw.G)
	r := rng.New(99)
	var cd netsim.ChurnDriver
	connects, failures, _ := cd.Run(rt, nw.Inputs(), nw.Outputs(), 600, r)
	if connects == 0 {
		t.Fatal("churn made no connects")
	}
	if failures != 0 {
		t.Fatalf("%d of %d connects blocked on the fault-free network", failures, connects)
	}
	if err := rt.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHealthyFullPermutationRoutes(t *testing.T) {
	// A strictly nonblocking network is rearrangeable: any permutation must
	// route greedily to saturation.
	nw, _ := Build(testParams(2))
	rt := route.NewRouter(nw.G)
	r := rng.New(5)
	perm := r.Perm(len(nw.Inputs()))
	for i, p := range perm {
		if _, err := rt.Connect(nw.Inputs()[i], nw.Outputs()[p]); err != nil {
			t.Fatalf("connect %d->%d failed: %v", i, p, err)
		}
	}
	if rt.ActiveCircuits() != len(nw.Inputs()) {
		t.Fatal("not all circuits established")
	}
	if err := rt.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateFaultFree(t *testing.T) {
	nw, _ := Build(testParams(2))
	out := nw.Evaluate(fault.Symmetric(0), 1, 200)
	if !out.Success || out.Shorted || !out.MajorityAccess || out.ChurnFailures != 0 {
		t.Fatalf("fault-free evaluation failed: %+v", out)
	}
	if out.FailedSwitches != 0 {
		t.Fatalf("phantom failures: %d", out.FailedSwitches)
	}
}

func TestEvaluateSmallEpsUsuallySurvives(t *testing.T) {
	nw, _ := Build(Params{Nu: 2, Gamma: 0, M: 8, DQ: 3, Seed: 3})
	succ := 0
	const trials = 10
	for s := uint64(0); s < trials; s++ {
		out := nw.Evaluate(fault.Symmetric(1e-4), 100+s, 100)
		if out.Success {
			succ++
		}
	}
	if succ < trials-2 {
		t.Fatalf("only %d/%d trials survived at ε=1e-4", succ, trials)
	}
}

func TestEvaluateHugeEpsFails(t *testing.T) {
	nw, _ := Build(testParams(2))
	out := nw.Evaluate(fault.Symmetric(0.25), 42, 0)
	if out.Success {
		t.Fatal("network survived ε=0.25")
	}
}

func TestAccountingComponentsSum(t *testing.T) {
	p := testParams(3)
	a := Accounting(p)
	if a.TerminalEdges+a.GridEdges+a.CoreEdges != a.Edges {
		t.Fatal("accounting components do not sum")
	}
	// Formula: nL(8·DQ·ν + 4ν − 2).
	n, L, nu := p.N(), p.L(), p.Nu
	want := n * L * (8*p.DQ*nu + 4*nu - 2)
	if a.Edges != want {
		t.Fatalf("edges = %d, closed form %d", a.Edges, want)
	}
}

func TestPaperAccounting(t *testing.T) {
	pa := PaperAccounting(3)
	if pa.Gamma != 4 || pa.N != 64 || pa.L != 64*256 {
		t.Fatalf("paper accounting basics wrong: %+v", pa)
	}
	// 𝓜 alone is 1280ν·4^(ν+γ); faithful total (1536ν−128)·4^(ν+γ).
	scale := pow4(3 + 4)
	if pa.EdgesFaithful != (1536*3-128)*scale {
		t.Fatalf("faithful edges = %d", pa.EdgesFaithful)
	}
	if pa.EdgesClaimed != 1408*3*scale {
		t.Fatalf("claimed edges = %d", pa.EdgesClaimed)
	}
	if pa.DepthFaithful != 12 || pa.Theorem2DepthBound != 15 {
		t.Fatalf("depths: %+v", pa)
	}
	// Depth: faithful 4ν is within the stated 5·log₄n bound.
	if pa.DepthFaithful > pa.Theorem2DepthBound {
		t.Fatal("faithful depth exceeds Theorem 2's bound")
	}
}

func TestLowerBoundFormulas(t *testing.T) {
	// Theorem 1 at n = 2^12: (1/2688)·n·144 and 12/6.
	n := 4096
	if got := LowerBoundSize(n); got < 218 || got > 220 {
		t.Fatalf("LowerBoundSize(%d) = %v", n, got)
	}
	if got := LowerBoundDepth(n); got != 2 {
		t.Fatalf("LowerBoundDepth(%d) = %v", n, got)
	}
	// The scaled construction should comfortably beat the lower bound.
	p := testParams(2)
	if float64(Accounting(p).Edges) < LowerBoundSize(p.N()) {
		t.Fatal("construction smaller than the lower bound?!")
	}
}

func TestExplicitExpanderBuild(t *testing.T) {
	p := Params{Nu: 2, Gamma: 0, M: 4, Explicit: true, DQ: 1, Seed: 1}
	nw, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// Per-quarter degree 5 → middle vertex degree 20 each way.
	v := stageStarts(t, nw)[4]
	if nw.G.OutDegree(v) != 20 || nw.G.InDegree(v) != 20 {
		t.Fatalf("explicit middle degrees: out=%d in=%d", nw.G.OutDegree(v), nw.G.InDegree(v))
	}
	if nw.G.NumEdges() != Accounting(p).Edges {
		t.Fatal("explicit accounting mismatch")
	}
	// Deterministic: two builds identical even with different seeds.
	p2 := p
	p2.Seed = 99
	nw2, err := Build(p2)
	if err != nil {
		t.Fatal(err)
	}
	for e := int32(0); e < int32(nw.G.NumEdges()); e++ {
		if nw.G.EdgeFrom(e) != nw2.G.EdgeFrom(e) || nw.G.EdgeTo(e) != nw2.G.EdgeTo(e) {
			t.Fatal("explicit construction depends on seed")
		}
	}
	// And it still certifies majority access when healthy.
	ac := NewAccessChecker(nw)
	if !nw.MajorityAccess(ac, RepairMasks(fault.NewInstance(nw.G))).OK {
		t.Fatal("explicit network lacks majority access")
	}
}

func TestExplicitRequiresSquareM(t *testing.T) {
	p := Params{Nu: 1, Gamma: 0, M: 8, Explicit: true, DQ: 1, Seed: 1}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted non-square M with Explicit")
	}
	if _, err := Build(p); err == nil {
		t.Fatal("built with non-square M")
	}
}

func TestQuarterDegree(t *testing.T) {
	if (Params{DQ: 3}).QuarterDegree() != 3 {
		t.Fatal("random quarter degree wrong")
	}
	if (Params{DQ: 3, Explicit: true}).QuarterDegree() != GabberGalilDegree {
		t.Fatal("explicit quarter degree wrong")
	}
}

func TestChurnPathLengthsAreDepthBounded(t *testing.T) {
	nw, _ := Build(testParams(2))
	out := nw.Evaluate(fault.Symmetric(0), 9, 300)
	// Every input→output path in the staged DAG has exactly 4ν switches.
	if ok := out.ChurnConnects - out.ChurnFailures; ok == 0 || out.ChurnPathTotal != ok*4*nw.P.Nu {
		t.Fatalf("%d paths with %d switches in all, want %d each", ok, out.ChurnPathTotal, 4*nw.P.Nu)
	}
}
