package route

// Pins the levels-aware DFS pruning in Router.Connect: against an
// independent replica of the UNPRUNED hunt, decisions and paths must be
// bit-identical on graphs whose outputs sit below the maximum level —
// exactly where the prune actually cuts (on last-level-output networks it
// is vacuous, and the existing differential grids already pin those).

import (
	"testing"

	"ftcsn/internal/graph"
	"ftcsn/internal/rng"
	"ftcsn/internal/superconc"
)

// unprunedConnectRef replays the pre-prune Connect search byte for byte
// (same traversal bytes, same stack discipline, same stamp order) without
// mutating the router — the oracle the pruned hunt must match exactly.
func unprunedConnectRef(rt *Router, in, out int32) []int32 {
	if rt.busy[in] || rt.busy[out] || !rt.usableVertex(in) || !rt.usableVertex(out) {
		return nil
	}
	if _, dup := rt.circuits[circuitKey(in, out)]; dup {
		return nil
	}
	n := rt.g.NumVertices()
	seen := make([]bool, n)
	prev := make([]int32, n)
	start, edges, heads := rt.g.CSROut()
	//ftlint:ignore seamcontract test-only oracle replaying the router's own adopted traversal bytes
	allowed := rt.allowed
	queue := []int32{in}
	seen[in] = true
	found := false
	for len(queue) > 0 && !found {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for idx := start[v]; idx < start[v+1]; idx++ {
			w := heads[idx]
			if !graph.SlotAdmits(allowed[idx], w, out) {
				continue
			}
			if seen[w] || rt.busy[w] {
				continue
			}
			seen[w] = true
			prev[w] = edges[idx]
			if w == out {
				found = true
				break
			}
			queue = append(queue, w)
		}
	}
	if !found {
		return nil
	}
	var rev []int32
	for v := out; ; {
		rev = append(rev, v)
		if v == in {
			break
		}
		v = rt.g.EdgeFrom(prev[v])
	}
	path := make([]int32, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path
}

// shallowOutputGraph builds a staged network with outputs at DIFFERENT
// levels — one at level 2, one at level 4 — so a hunt for the shallow
// output has a deep decoy cone the prune must cut without changing any
// decision: inputs fan into a first rank, which feeds both the shallow
// output and a second rank continuing to a third rank and the deep output.
func shallowOutputGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(40)
	ins := b.AddVertices(3)
	r1 := b.AddVertices(4)
	outA := b.AddVertex()
	r2 := b.AddVertices(4)
	r3 := b.AddVertices(4)
	outB := b.AddVertex()
	for i := int32(0); i < 3; i++ {
		for j := int32(0); j < 4; j++ {
			b.AddEdge(ins+i, r1+j)
		}
	}
	for j := int32(0); j < 4; j++ {
		b.AddEdge(r1+j, outA)
		for k := int32(0); k < 4; k++ {
			b.AddEdge(r1+j, r2+k)
		}
	}
	for j := int32(0); j < 4; j++ {
		for k := int32(0); k < 4; k++ {
			b.AddEdge(r2+j, r3+k)
		}
		b.AddEdge(r3+j, outB)
	}
	for i := int32(0); i < 3; i++ {
		b.MarkInput(ins + i)
	}
	b.MarkOutput(outA)
	b.MarkOutput(outB)
	return b.Freeze()
}

func TestLevelPruneMatchesUnprunedHunt(t *testing.T) {
	graphs := map[string]*graph.Graph{"shallow-output": shallowOutputGraph(t)}
	if sc, err := superconc.New(24, 3, 0x9A7E); err == nil {
		graphs["superconcentrator"] = sc.G
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			rt := NewRouter(g)
			if rt.levels == nil {
				t.Fatal("graph unexpectedly unleveled; prune disabled")
			}
			r := rng.New(0x9A7E1)
			ins, outs := g.Inputs(), g.Outputs()
			type circ struct{ in, out int32 }
			var live []circ
			for op := 0; op < 600; op++ {
				// Occasionally refresh masks with random switch outages.
				if op%120 == 0 {
					edgeOK := make([]bool, g.NumEdges())
					for e := range edgeOK {
						edgeOK[e] = r.Float64() > 0.08
					}
					rt.SetMasks(nil, edgeOK)
					live = live[:0]
				}
				if len(live) > 0 && r.Bernoulli(0.4) {
					ci := r.Intn(len(live))
					c := live[ci]
					if err := rt.Disconnect(c.in, c.out); err != nil {
						t.Fatalf("op %d: disconnect (%d,%d): %v", op, c.in, c.out, err)
					}
					live[ci] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				in := ins[r.Intn(len(ins))]
				out := outs[r.Intn(len(outs))]
				want := unprunedConnectRef(rt, in, out)
				got, err := rt.Connect(in, out)
				if (err == nil) != (want != nil) {
					t.Fatalf("op %d: connect (%d,%d): pruned err=%v, unpruned found=%v",
						op, in, out, err, want != nil)
				}
				if err != nil {
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("op %d: path lengths diverge: pruned %v, unpruned %v", op, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("op %d: paths diverge at hop %d: pruned %v, unpruned %v", op, i, got, want)
					}
				}
				live = append(live, circ{in, out})
			}
		})
	}
}
