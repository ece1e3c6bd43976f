package experiments

import (
	"fmt"
	"testing"

	"ftcsn/internal/benes"
	"ftcsn/internal/butterfly"
	"ftcsn/internal/clos"
	"ftcsn/internal/core"
	"ftcsn/internal/expander"
	"ftcsn/internal/graph"
	"ftcsn/internal/multibutterfly"
	"ftcsn/internal/rng"
	"ftcsn/internal/trees"
)

// stagedFamily is a staged construction together with the stage layout of
// its vertex IDs: sizes[s] consecutive IDs make up stage s, stage 0 first.
// mirror asks for the check of g's mirror too.
type stagedFamily struct {
	name   string
	g      *graph.Graph
	sizes  []int
	mirror bool
}

// stagesOf expands a stage layout into each vertex's stage.
func stagesOf(sizes []int) []int32 {
	var stage []int32
	for s, k := range sizes {
		for ; k > 0; k-- {
			stage = append(stage, int32(s))
		}
	}
	return stage
}

// networkNLayout is Build's layout: n inputs, 4ν−1 stages of n·L links,
// n outputs.
func networkNLayout(p core.Params) []int {
	sizes := make([]int, 4*p.Nu+1)
	for s := range sizes {
		sizes[s] = p.N() * p.L()
	}
	sizes[0], sizes[4*p.Nu] = p.N(), p.N()
	return sizes
}

// columns is the layout of a k-column MIN with n wires per column.
func columns(k, n int) []int {
	sizes := make([]int, k)
	for c := range sizes {
		sizes[c] = n
	}
	return sizes
}

// doubledLayout is trees.Doubled's layout: the up-tree's stages 0..k
// (n>>s vertices each, the root last), then the down-tree's stages
// k+1..2k (2^s vertices each).
func doubledLayout(k int) []int {
	var sizes []int
	for s := 0; s <= k; s++ {
		sizes = append(sizes, 1<<(k-s))
	}
	for s := 1; s <= k; s++ {
		sizes = append(sizes, 1<<s)
	}
	return sizes
}

func stagedFamilies(t *testing.T) []stagedFamily {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var fams []stagedFamily
	for _, p := range []core.Params{
		core.DefaultParams(1),
		core.DefaultParams(2),
		core.DefaultParams(3),
		paperScaledParams(2),
		paperScaledParams(3),
		{Nu: 2, M: 2, DQ: 1, Seed: 3},
		{Nu: 2, M: 4, DQ: 4, Seed: 5},
		{Nu: 1, M: 4, DQ: 1, Explicit: true, Seed: 1},
		{Nu: 2, M: 16, DQ: 1, Explicit: true, Seed: 1},
		{Nu: 1, Gamma: 1, M: 2, DQ: 3, Seed: 1},
		{Nu: 2, Gamma: 2, M: 1, DQ: 2, Seed: 9},
	} {
		nw, err := core.Build(p)
		must(err)
		name := fmt.Sprintf("network-N(nu=%d,gamma=%d,M=%d,DQ=%d,explicit=%v)", p.Nu, p.Gamma, p.M, p.DQ, p.Explicit)
		fams = append(fams, stagedFamily{name, nw.G, networkNLayout(p), true})
	}
	for k := 1; k <= 6; k++ {
		bn, err := benes.New(k)
		must(err)
		fams = append(fams, stagedFamily{fmt.Sprintf("benes(k=%d)", k), bn.G, columns(2*k, 1<<k), false})
		bf, err := butterfly.New(k)
		must(err)
		fams = append(fams, stagedFamily{fmt.Sprintf("butterfly(k=%d)", k), bf.G, columns(k+1, 1<<k), false})
		tn, err := trees.Doubled(k)
		must(err)
		fams = append(fams, stagedFamily{fmt.Sprintf("doubled-tree(k=%d)", k), tn.G, doubledLayout(k), false})
	}
	for _, kd := range [][2]int{{2, 1}, {3, 2}, {5, 3}, {8, 2}, {12, 2}} {
		mb, err := multibutterfly.New(kd[0], kd[1], uint64(0xB0+kd[0]))
		must(err)
		fams = append(fams, stagedFamily{fmt.Sprintf("multibutterfly(k=%d,d=%d)", kd[0], kd[1]), mb.G, columns(kd[0]+1, 1<<kd[0]), false})
	}
	for _, s := range [][3]int{{1, 1, 1}, {2, 3, 2}, {3, 5, 4}, {4, 4, 3}, {2, 1, 5}} {
		n0, m, r := s[0], s[1], s[2]
		cn, err := clos.New(n0, m, r)
		must(err)
		fams = append(fams, stagedFamily{fmt.Sprintf("clos(n0=%d,m=%d,r=%d)", n0, m, r), cn.G, []int{n0 * r, r * m, m * r, n0 * r}, false})
	}
	for _, bip := range []struct {
		name string
		b    *expander.Bipartite
	}{
		{"E4-random(t=64,d=3)", expander.RandomMatchings(64, 3, rng.New(64))},
		{"E4-random(t=256,d=3)", expander.RandomMatchings(256, 3, rng.New(256))},
		{"E4-random(t=1024,d=3)", expander.RandomMatchings(1024, 3, rng.New(1024))},
		{"random(t=256,d=1)", expander.RandomMatchings(256, 1, rng.New(1))},
		{"E4-gabber-galil(t=64)", expander.GabberGalil(8)},
		{"E4-gabber-galil(t=1024)", expander.GabberGalil(32)},
	} {
		fams = append(fams, stagedFamily{bip.name, newBipartiteGraph(bip.b), []int{bip.b.T, bip.b.T}, false})
	}
	return fams
}

// TestLevelsAreConstructionStages: every staged construction lays its
// vertex IDs out stage by stage, and Kahn's leveling, the only one
// graph.Levels computes, must put every vertex on its stage with the IDs
// level-sorted, so the certificate and the guide sweep plain vertex IDs.
// 𝒩's mirror must put every vertex on level 4ν − stage. A construction
// whose switches skip a stage, or that leaves a vertex past stage 0 with
// no switch in (or, in 𝒩, one before the last stage with no switch out),
// fails here.
func TestLevelsAreConstructionStages(t *testing.T) {
	for _, f := range stagedFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			want := stagesOf(f.sizes)
			if len(want) != f.g.NumVertices() {
				t.Fatalf("layout covers %d vertices, graph has %d", len(want), f.g.NumVertices())
			}
			lv, err := f.g.Levels()
			if err != nil {
				t.Fatal(err)
			}
			if !lv.Sorted() {
				t.Fatal("vertex IDs are not level-sorted")
			}
			if lv.NumLevels() != len(f.sizes) {
				t.Fatalf("%d levels, %d stages", lv.NumLevels(), len(f.sizes))
			}
			for v, l := range lv.PerVertex() {
				if l != want[v] {
					t.Fatalf("vertex %d on level %d, stage %d", v, l, want[v])
				}
			}
			if !f.mirror {
				return
			}
			mlv, err := f.g.Mirror().Levels()
			if err != nil {
				t.Fatal(err)
			}
			top := int32(len(f.sizes) - 1)
			for v, l := range mlv.PerVertex() {
				if l != top-want[v] {
					t.Fatalf("mirror: vertex %d on level %d, want %d − %d", v, l, top, want[v])
				}
			}
		})
	}
}
