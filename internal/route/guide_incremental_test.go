package route_test

// Differential, fuzz, counter and allocation coverage for the
// incrementally maintained output-reachability guide
// (ShardedEngine.MasksChangedDiff): after every fault diff, revert, and
// interleaved churn step, the guide words of the incremental engine and of
// a full-rebuild engine must both be bit-identical to referenceGuide's
// independent full-width derivation, and the engines' decisions and paths
// bit-identical to the sequential Router's, across the topology zoo
// (guides of 1, 2, 4 and 8 words per row) and batch cuts. External test
// package: the realistic diff source is core.MaskUpdater, and core depends
// on route.

import (
	"fmt"
	"testing"

	"ftcsn/internal/benes"
	"ftcsn/internal/circulant"
	"ftcsn/internal/core"
	"ftcsn/internal/fault"
	"ftcsn/internal/graph"
	"ftcsn/internal/hammock"
	"ftcsn/internal/hyperx"
	"ftcsn/internal/multibutterfly"
	"ftcsn/internal/rng"
	"ftcsn/internal/route"
	"ftcsn/internal/superconc"
)

type guideFamily struct {
	name string
	g    *graph.Graph
}

// guideZoo builds the same topology spread E14 measures — the paper's 𝒩,
// its mirror image, a hammock-substituted Beneš, a superconcentrator, and
// the DAG-unrolled hyperx and circulant — every leveled shape the guide
// has to survive (identity and permuted sweeps alike), plus multibutterflies
// with 128, 256 and 512 outputs: guides 2, 4 and 8 words wide, whose rows
// span from every word (inputs) down to one (the last columns).
func guideZoo(t testing.TB) []guideFamily {
	t.Helper()
	var fams []guideFamily
	nw, err := core.Build(core.DefaultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"network-N", nw.G})
	fams = append(fams, guideFamily{"mirror-N", nw.G.Mirror()})
	bn, err := benes.New(3)
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"benes-hammock", hammock.SubstituteEdges(bn.G, 2, 2, false)})
	sc, err := superconc.New(24, 3, 0xE14)
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"superconcentrator", sc.G})
	hx, err := hyperx.New([]int{3, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"hyperx", hx.G})
	cc, err := circulant.New(8, []int{1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fams = append(fams, guideFamily{"circulant", cc.G})
	for k := 7; k <= 9; k++ {
		fams = append(fams, guideFamily{fmt.Sprintf("multibutterfly-n%d", 1<<k), multibutterflyGraph(t, k)})
	}
	return fams
}

// multibutterflyGraph builds the 2^k-terminal multibutterfly (multiplicity
// 2) the multi-word guide tests run on.
func multibutterflyGraph(t testing.TB, k int) *graph.Graph {
	t.Helper()
	mb, err := multibutterfly.New(k, 2, 0x5EA7+uint64(k))
	if err != nil {
		t.Fatal(err)
	}
	return mb.G
}

// referenceGuide derives the output-reachability guide from the traversal
// bytes at full width: every row clears, ORs and keeps all of its words,
// and no span is read. It shares no code with the engine, so a wrong span
// — which the incremental and the rebuild paths would share — shows as a
// difference from it.
func referenceGuide(g *graph.Graph, allowed []uint8) ([]uint64, int) {
	lv, err := g.Levels()
	if err != nil {
		panic(err)
	}
	n := g.NumVertices()
	groups := (len(g.Outputs()) + 63) >> 6
	outIdx := make([]int32, n)
	for v := range outIdx {
		outIdx[v] = -1
	}
	for i, v := range g.Outputs() {
		outIdx[v] = int32(i)
	}
	words := make([]uint64, n*groups)
	start, _, heads := g.CSROut()
	for p := int32(n) - 1; p >= 0; p-- {
		v := lv.At(p)
		row := words[int(v)*groups : int(v)*groups+groups]
		if oi := outIdx[v]; oi >= 0 {
			row[int(oi)>>6] |= 1 << (uint(oi) & 63)
		}
		for idx := start[v]; idx < start[v+1]; idx++ {
			c := allowed[idx]
			w := heads[idx]
			if c == 0 {
				wrow := words[int(w)*groups : int(w)*groups+groups]
				for k := range row {
					row[k] |= wrow[k]
				}
			} else if c == graph.AdjTerminal {
				if oi := outIdx[w]; oi >= 0 {
					row[int(oi)>>6] |= 1 << (uint(oi) & 63)
				}
			}
		}
	}
	return words, groups
}

// checkGuide requires se's guide words to equal referenceGuide's over the
// same traversal bytes, word for word.
func checkGuide(t *testing.T, step string, se *route.ShardedEngine, g *graph.Graph, allowed []uint8) {
	t.Helper()
	want, wantGroups := referenceGuide(g, allowed)
	got, groups := se.GuideWords()
	if got == nil {
		t.Fatalf("%s: guide is off", step)
	}
	if groups != wantGroups || len(got) != len(want) {
		t.Fatalf("%s: guide shape %d×%d, reference %d×%d", step, len(got), groups, len(want), wantGroups)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: guide word %d is %#x, reference %#x (vertex %d, group %d)",
				step, i, got[i], want[i], i/groups, i%groups)
		}
	}
}

// lockstepBatch drives one request batch through the incrementally
// maintained engine, the full-rebuild reference (each cut into pieces
// consecutive ConnectBatch calls), and the sequential router, requiring
// bit-identical decisions and paths.
func lockstepBatch(t *testing.T, step string, inc, ref *route.ShardedEngine, seq *route.Router,
	ins, outs []int32, r *rng.RNG, k, pieces int) []route.Request {
	t.Helper()
	reqs := make([]route.Request, k)
	for i := range reqs {
		reqs[i] = route.Request{In: ins[r.Intn(len(ins))], Out: outs[r.Intn(len(outs))]}
	}
	ri := connectInPieces(inc, reqs, pieces, nil)
	rr := connectInPieces(ref, reqs, pieces, nil)
	rs := seq.ConnectBatch(reqs, nil)
	accepted := reqs[:0:0]
	for i := range reqs {
		ok := ri[i].Path != nil
		if ok != (rr[i].Path != nil) || ok != (rs[i].Path != nil) {
			t.Fatalf("%s: request %d (%d->%d): decisions diverge: inc=%v rebuild=%v sequential=%v",
				step, i, reqs[i].In, reqs[i].Out, ok, rr[i].Path != nil, rs[i].Path != nil)
		}
		if !ok {
			continue
		}
		accepted = append(accepted, reqs[i])
		if len(ri[i].Path) != len(rr[i].Path) || len(ri[i].Path) != len(rs[i].Path) {
			t.Fatalf("%s: request %d: path lengths diverge: %d/%d/%d",
				step, i, len(ri[i].Path), len(rr[i].Path), len(rs[i].Path))
		}
		for j := range ri[i].Path {
			if ri[i].Path[j] != rr[i].Path[j] || ri[i].Path[j] != rs[i].Path[j] {
				t.Fatalf("%s: request %d: paths diverge at hop %d: %v / %v / %v",
					step, i, j, ri[i].Path, rr[i].Path, rs[i].Path)
			}
		}
	}
	return accepted
}

// TestIncrementalGuideMatchesRebuild: randomized fault/churn/revert
// sequences on every zoo family × batch cut, at a fault rate of about
// one failed switch per trial and at ε=0.03, whose diffs cross the
// rebuild cutover. At every step the incremental guide and a full
// rebuild's must both equal the full-width reference word for word, and
// the engines must stay decision- and path-identical to the sequential
// Router — including mid-sequence reverts and diffs applied while
// circuits are live. Subtests keep the names of the engine's shard days:
// shards=k cuts each engine batch into k ConnectBatch calls and picks
// the sequence's seed.
func TestIncrementalGuideMatchesRebuild(t *testing.T) {
	const trials = 12
	for _, fam := range guideZoo(t) {
		for _, shards := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", fam.name, shards), func(t *testing.T) {
				g := fam.g
				seed := uint64(0x641DE) + uint64(len(fam.name))*uint64(shards)
				sparse := 0.5 / float64(g.NumEdges())
				st := guideSequence(t, g, shards, sparse, trials, seed)
				// On the multi-word families the sparse diffs stay under
				// the cutover, so cone walks must have run: every full
				// rebuild recomputes each row once, and the walks account
				// for the rest. (On the smallest one-word families one
				// fault's discards alone can cross the cutover.)
				if len(g.Outputs()) > 64 &&
					st.GuideRowsRecomputed <= st.GuideRebuilds*int64(g.NumVertices()) {
					t.Fatalf("ε=%g: no cone walk recomputed a row (%d refreshes, %d rebuilds)",
						sparse, st.GuideRefreshes, st.GuideRebuilds)
				}
				st = guideSequence(t, g, shards, 0.03, trials, seed)
				if st.GuideRebuilds <= 2 {
					t.Fatalf("ε=0.03: no diff crossed the rebuild cutover (%d refreshes)", st.GuideRefreshes)
				}
			})
		}
	}
}

// guideSequence runs TestIncrementalGuideMatchesRebuild's fault/churn/
// revert sequence on g under the symmetric fault model at rate eps, with
// each engine batch cut into pieces ConnectBatch calls, and returns the
// incrementally maintained engine's counters.
func guideSequence(t *testing.T, g *graph.Graph, pieces int, eps float64, trials int, seed uint64) route.ShardedStats {
	t.Helper()
	inc := route.NewShardedEngine(g, 1)
	ref := route.NewShardedEngine(g, 1)
	seq := route.NewRouter(g)

	inst := fault.NewInstance(g)
	mu := core.NewMaskUpdater(g)
	var m core.Masks
	mu.Init(inst, &m)
	inc.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	ref.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	seq.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
	check := func(step string) {
		t.Helper()
		step = fmt.Sprintf("ε=%g: %s", eps, step)
		checkGuide(t, step+" (incremental)", inc, g, m.OutAllowed)
		checkGuide(t, step+" (rebuild)", ref, g, m.OutAllowed)
	}
	check("init")

	bi := fault.NewBatchInjector(g)
	bi.FillStream(fault.Symmetric(eps), seed, 0, trials)
	r := rng.New(seed ^ 0xC0FFEE)
	ins, outs := g.Inputs(), g.Outputs()
	batch := len(ins)/2 + 1

	for trial := 0; trial < trials; trial++ {
		diff := bi.ApplyNext(inst)
		edges := mu.Apply(inst, &m, diff)
		inc.MasksChangedDiff(mu.ChangedVertices(), edges)
		ref.MasksChanged()
		check(fmt.Sprintf("trial %d apply", trial))

		acc := lockstepBatch(t, fmt.Sprintf("ε=%g: trial %d churn A", eps, trial),
			inc, ref, seq, ins, outs, r, batch, pieces)

		// Revert the trial's faults while circuits are live — the
		// interleaved-churn case the epoch-stamped worklist must
		// survive — then connect more and re-apply.
		edges = mu.Revert(inst, &m, diff)
		inc.MasksChangedDiff(mu.ChangedVertices(), edges)
		ref.MasksChanged()
		check(fmt.Sprintf("trial %d revert", trial))

		lockstepBatch(t, fmt.Sprintf("ε=%g: trial %d churn B", eps, trial),
			inc, ref, seq, ins, outs, r, batch, pieces)

		for _, rq := range acc {
			ei := inc.Disconnect(rq.In, rq.Out)
			er := ref.Disconnect(rq.In, rq.Out)
			es := seq.Disconnect(rq.In, rq.Out)
			if (ei == nil) != (er == nil) || (ei == nil) != (es == nil) {
				t.Fatalf("ε=%g: trial %d: disconnect (%d,%d) diverges: %v/%v/%v",
					eps, trial, rq.In, rq.Out, ei, er, es)
			}
		}

		fault.ApplyDiff(inst, diff)
		edges = mu.Apply(inst, &m, diff)
		inc.MasksChangedDiff(mu.ChangedVertices(), edges)
		ref.MasksChanged()
		check(fmt.Sprintf("trial %d reapply", trial))

		inc.Reset()
		ref.Reset()
		seq.Reset()
		check(fmt.Sprintf("trial %d post-reset", trial))
	}
	return inc.ShardedStats()
}

// forkGraph is a three-level network whose guide counts follow from its
// shape: input s has two parallel switches to a and one to b; a feeds
// outputs 0..h and b outputs h..2h-1 (output h is reachable from both).
// With h=64 rows are two words wide and the spans are s, a: [0,2),
// b: [1,2), output i: [i>>6, i>>6+1); with h=32 every row is one word.
func forkGraph(h int) (g *graph.Graph, sa1, aOut, bOut []int32) {
	b := graph.NewBuilder(3+2*h, 3+2*h+1)
	s := b.AddVertex(0)
	va := b.AddVertex(1)
	vb := b.AddVertex(1)
	outs := b.AddVertices(2, 2*h)
	b.MarkInput(s)
	for i := 0; i < 2*h; i++ {
		b.MarkOutput(outs + int32(i))
	}
	sa1 = []int32{b.AddEdge(s, va)}
	b.AddEdge(s, va)
	b.AddEdge(s, vb)
	for i := 0; i <= h; i++ {
		aOut = append(aOut, b.AddEdge(va, outs+int32(i)))
	}
	for i := h; i < 2*h; i++ {
		bOut = append(bOut, b.AddEdge(vb, outs+int32(i)))
	}
	return b.Freeze(), sa1, aOut, bOut
}

// TestGuideCounters pins the guide-maintenance counters over a fixed
// sequence of slot blocks on forkGraph, at two words per row and at one,
// and checks the guide against the full-width reference after each step.
func TestGuideCounters(t *testing.T) {
	type counts struct{ rebuilds, refreshes, rows, changed, words int64 }
	for _, tc := range []struct {
		h     int
		steps [6]counts
	}{
		{64, [6]counts{
			{1, 0, 131, 131, 133}, // construction: every row fills from zero
			{1, 0, 131, 0, 133},   // adopting equal bytes rebuilds, changes nothing
			{0, 1, 1, 0, 2},       // s→a: s still reaches a through the twin switch
			{0, 1, 2, 1, 4},       // a→out h: a loses it, s keeps it through b
			{0, 1, 2, 2, 3},       // b→out h+1: b and s lose it
			{1, 0, 131, 2, 133},   // a→outs 0..16: 17 edges reach E/8, a rebuild
		}},
		{32, [6]counts{
			{1, 0, 67, 67, 67},
			{1, 0, 67, 0, 67},
			{0, 1, 1, 0, 1},
			{0, 1, 2, 1, 2},
			{0, 1, 2, 2, 2},
			{1, 0, 67, 2, 67}, // a→outs 0..8: 9 edges reach E/8
		}},
	} {
		t.Run(fmt.Sprintf("outputs=%d", 2*tc.h), func(t *testing.T) {
			g, sa1, aOut, bOut := forkGraph(tc.h)
			se := route.NewShardedEngine(g, 1)
			allowed := g.BuildOutAllowed(nil, nil, nil)
			cutover := aOut[:(g.NumEdges()+7)/8]
			var prev route.ShardedStats
			for i, step := range []func(){
				func() {},
				func() { se.SetMasksShared(nil, nil, allowed) },
				func() { block(se, g, allowed, sa1) },
				func() { block(se, g, allowed, aOut[tc.h:]) },
				func() { block(se, g, allowed, bOut[1:2]) },
				func() { block(se, g, allowed, cutover) },
			} {
				step()
				st := se.ShardedStats()
				got := counts{
					st.GuideRebuilds - prev.GuideRebuilds,
					st.GuideRefreshes - prev.GuideRefreshes,
					st.GuideRowsRecomputed - prev.GuideRowsRecomputed,
					st.GuideRowsChanged - prev.GuideRowsChanged,
					st.GuideWordsRecomputed - prev.GuideWordsRecomputed,
				}
				if got != tc.steps[i] {
					t.Fatalf("step %d: counted %+v, want %+v", i, got, tc.steps[i])
				}
				prev = st
				if i > 0 {
					checkGuide(t, fmt.Sprintf("step %d", i), se, g, allowed)
				}
			}
		})
	}
}

// block marks the forward slots of edges blocked in allowed, in place,
// and tells se through MasksChangedDiff.
func block(se *route.ShardedEngine, g *graph.Graph, allowed []uint8, edges []int32) {
	for _, e := range edges {
		allowed[g.OutSlot(e)] |= graph.AdjBlocked
	}
	se.MasksChangedDiff(nil, edges)
}

// FuzzIncrementalGuide drives randomized diff/revert sequences over six
// topology shapes — three with one-word guide rows, multibutterflies with
// 2, 4 and 8 — and checks the incremental guide and a full rebuild against
// the full-width reference word for word at every step (part of the
// Makefile fuzz-smoke set).
func FuzzIncrementalGuide(f *testing.F) {
	f.Add(uint64(1), uint16(20), uint8(6))
	f.Add(uint64(42), uint16(80), uint8(10))
	f.Add(uint64(7), uint16(5), uint8(3))
	f.Add(uint64(9), uint16(4), uint8(6))
	f.Add(uint64(10), uint16(2), uint8(5))
	f.Add(uint64(11), uint16(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, epsMil uint16, trials uint8) {
		var g *graph.Graph
		switch seed % 6 {
		case 0:
			nw, err := core.Build(core.DefaultParams(1))
			if err != nil {
				t.Skip()
			}
			g = nw.G
		case 1:
			hx, err := hyperx.New([]int{3, 2}, 3)
			if err != nil {
				t.Skip()
			}
			g = hx.G
		case 2:
			cc, err := circulant.New(8, []int{1, 3}, 4)
			if err != nil {
				t.Skip()
			}
			g = cc.G
		default:
			g = multibutterflyGraph(t, int(seed%6)+4)
		}
		nTrials := int(trials%16) + 1
		eps := float64(epsMil%200) / 1000

		inc := route.NewShardedEngine(g, 1)
		ref := route.NewShardedEngine(g, 1)
		inst := fault.NewInstance(g)
		mu := core.NewMaskUpdater(g)
		var m core.Masks
		mu.Init(inst, &m)
		inc.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)
		ref.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)

		bi := fault.NewBatchInjector(g)
		bi.FillStream(fault.Symmetric(eps), seed, 0, nTrials)
		check := func(step string) {
			t.Helper()
			checkGuide(t, step+" (incremental)", inc, g, m.OutAllowed)
			checkGuide(t, step+" (rebuild)", ref, g, m.OutAllowed)
		}
		for trial := 0; trial < nTrials; trial++ {
			diff := bi.ApplyNext(inst)
			edges := mu.Apply(inst, &m, diff)
			inc.MasksChangedDiff(mu.ChangedVertices(), edges)
			ref.MasksChanged()
			check(fmt.Sprintf("trial %d apply", trial))
			if seed>>uint(trial%48)&1 == 1 {
				edges = mu.Revert(inst, &m, diff)
				inc.MasksChangedDiff(mu.ChangedVertices(), edges)
				ref.MasksChanged()
				check(fmt.Sprintf("trial %d revert", trial))
				fault.ApplyDiff(inst, diff)
				edges = mu.Apply(inst, &m, diff)
				inc.MasksChangedDiff(mu.ChangedVertices(), edges)
				ref.MasksChanged()
				check(fmt.Sprintf("trial %d reapply", trial))
			}
		}
	})
}

// TestIncrementalGuideAllocFree: a steady-state guide update — fault diff,
// incremental masks, reverse-cone propagation — must not allocate once the
// engine and updater are warm (the per-epoch analogue of the engine's
// churn alloc gates; the worklist's buckets are preallocated to level
// widths, so this holds by construction), with one-word rows and with
// eight-word rows.
func TestIncrementalGuideAllocFree(t *testing.T) {
	nw, err := core.Build(core.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []guideFamily{
		{"network-N", nw.G},
		{"multibutterfly-n512", multibutterflyGraph(t, 9)},
	} {
		g := fam.g
		se := route.NewShardedEngine(g, 1)
		inst := fault.NewInstance(g)
		mu := core.NewMaskUpdater(g)
		var m core.Masks
		mu.Init(inst, &m)
		se.SetMasksShared(m.VertexOK, m.EdgeOK, m.OutAllowed)

		const total = 120
		bi := fault.NewBatchInjector(g)
		bi.FillStream(fault.Symmetric(0.01), 0xA110C2, 0, total)
		step := func() {
			diff := bi.ApplyNext(inst)
			edges := mu.Apply(inst, &m, diff)
			se.MasksChangedDiff(mu.ChangedVertices(), edges)
		}
		for i := 0; i < 40; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(60, step); avg != 0 {
			t.Fatalf("%s: incremental guide epoch allocates %.2f allocs/op in steady state, want 0", fam.name, avg)
		}
	}
}
