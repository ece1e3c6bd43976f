// Package graph provides the directed-graph substrate shared by every
// network in this repository.
//
// Following Pippenger & Lin, a circuit-switching network is an acyclic
// directed graph: distinguished vertices called inputs and outputs are the
// terminals, the remaining vertices are electrical links, and each edge is a
// single-pole single-throw switch joining two links. The graph is therefore
// the ground truth on which fault injection (per-edge open/closed states)
// and circuit routing (vertex-disjoint paths) operate.
//
// Graphs are built once through a Builder and then frozen into an immutable
// CSR (compressed sparse row) form. All mutable per-instance state — fault
// masks, busy flags, frontiers — lives in the consumer packages, indexed by
// the dense vertex and edge IDs handed out here, so a single frozen topology
// can back many concurrent Monte-Carlo trials.
//
// A vertex carries no stage label. The one notion of depth in the
// repository is Levels, Kahn's longest-path leveling, computed the same
// way for every graph. A staged construction's stages are its levels,
// because every switch steps one stage forward and every vertex past the
// first stage has a switch in; and it lays vertex IDs out stage by stage,
// so its sweeps visit plain vertex IDs.
package graph

import (
	"fmt"
	"strings"
	"sync"
)

// Builder accumulates vertices and edges and freezes them into a Graph.
// The zero value is ready to use.
type Builder struct {
	n        int32 // vertices added so far
	edgeFrom []int32
	edgeTo   []int32
	inputs   []int32
	outputs  []int32
}

// NewBuilder returns a Builder with a capacity hint for edges.
func NewBuilder(edgeHint int) *Builder {
	return &Builder{
		edgeFrom: make([]int32, 0, edgeHint),
		edgeTo:   make([]int32, 0, edgeHint),
	}
}

// AddVertex creates a vertex and returns its ID.
func (b *Builder) AddVertex() int32 {
	b.n++
	return b.n - 1
}

// AddVertices creates k vertices and returns the ID of the first; IDs are
// contiguous.
func (b *Builder) AddVertices(k int) int32 {
	first := b.n
	b.n += int32(k)
	return first
}

// AddEdge creates a switch from u to v and returns its edge ID. Multi-edges
// are permitted (the probabilistic expander constructions produce them) and
// are electrically meaningful: parallel switches fail independently.
func (b *Builder) AddEdge(u, v int32) int32 {
	n := b.n
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range n=%d", u, v, n))
	}
	b.edgeFrom = append(b.edgeFrom, u)
	b.edgeTo = append(b.edgeTo, v)
	return int32(len(b.edgeFrom) - 1)
}

// MarkInput declares v a network input terminal.
func (b *Builder) MarkInput(v int32) { b.inputs = append(b.inputs, v) }

// MarkOutput declares v a network output terminal.
func (b *Builder) MarkOutput(v int32) { b.outputs = append(b.outputs, v) }

// Freeze converts the accumulated topology into an immutable Graph.
// The Builder must not be used afterwards.
func (b *Builder) Freeze() *Graph {
	n := int(b.n)
	m := len(b.edgeFrom)
	g := &Graph{
		edgeFrom: b.edgeFrom,
		edgeTo:   b.edgeTo,
		inputs:   b.inputs,
		outputs:  b.outputs,
		outStart: make([]int32, n+1),
		inStart:  make([]int32, n+1),
		outEdges: make([]int32, m),
		inEdges:  make([]int32, m),
	}
	// Counting sort of edges into CSR rows, forward and reverse.
	for _, u := range b.edgeFrom {
		g.outStart[u+1]++
	}
	for _, v := range b.edgeTo {
		g.inStart[v+1]++
	}
	for i := 0; i < n; i++ {
		g.outStart[i+1] += g.outStart[i]
		g.inStart[i+1] += g.inStart[i]
	}
	outNext := make([]int32, n)
	inNext := make([]int32, n)
	copy(outNext, g.outStart[:n])
	copy(inNext, g.inStart[:n])
	g.outHeads = make([]int32, m)
	g.inTails = make([]int32, m)
	g.outSlot = make([]int32, m)
	for e := 0; e < m; e++ {
		u := b.edgeFrom[e]
		v := b.edgeTo[e]
		g.outEdges[outNext[u]] = int32(e)
		g.outHeads[outNext[u]] = v
		g.outSlot[e] = outNext[u]
		outNext[u]++
		g.inEdges[inNext[v]] = int32(e)
		g.inTails[inNext[v]] = u
		inNext[v]++
	}
	g.vertexRole = make([]uint8, n)
	for _, v := range g.inputs {
		g.vertexRole[v] |= roleInput
	}
	for _, v := range g.outputs {
		g.vertexRole[v] |= roleOutput
	}
	return g
}

// Graph is an immutable directed multigraph in CSR form. Vertex IDs are
// dense in [0, NumVertices()); edge IDs are dense in [0, NumEdges()).
type Graph struct {
	edgeFrom   []int32
	edgeTo     []int32
	inputs     []int32
	outputs    []int32
	outStart   []int32 // len n+1; outEdges[outStart[v]:outStart[v+1]] leave v
	outEdges   []int32
	inStart    []int32
	inEdges    []int32
	outHeads   []int32 // outHeads[i] = EdgeTo(outEdges[i]); CSR-slot aligned
	inTails    []int32 // inTails[i] = EdgeFrom(inEdges[i])
	outSlot    []int32 // outSlot[e] = position of e in outEdges
	vertexRole []uint8 // per-vertex terminal role bits (roleInput, roleOutput)

	// Lazily computed topological-level metadata (see Levels).
	levelsOnce sync.Once
	levels     *Levels
	levelsErr  error

	// Lazily computed per-vertex output lane-word spans (see OutputSpans).
	spansOnce sync.Once
	spans     []WordSpan
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.vertexRole) }

// NumEdges returns the edge (switch) count — the paper's "size" measure.
func (g *Graph) NumEdges() int { return len(g.edgeFrom) }

// Inputs returns the input terminal IDs (shared slice; do not mutate).
func (g *Graph) Inputs() []int32 { return g.inputs }

// Outputs returns the output terminal IDs (shared slice; do not mutate).
func (g *Graph) Outputs() []int32 { return g.outputs }

// Terminal role bits of Graph.vertexRole.
const (
	roleInput uint8 = 1 << iota
	roleOutput
)

// IsTerminal reports whether v is an input or output.
func (g *Graph) IsTerminal(v int32) bool { return g.vertexRole[v] != 0 }

// IsInput reports whether v is an input terminal; an ID outside
// [0, NumVertices()) is not.
func (g *Graph) IsInput(v int32) bool {
	return uint32(v) < uint32(len(g.vertexRole)) && g.vertexRole[v]&roleInput != 0
}

// IsOutput reports whether v is an output terminal; an ID outside
// [0, NumVertices()) is not.
func (g *Graph) IsOutput(v int32) bool {
	return uint32(v) < uint32(len(g.vertexRole)) && g.vertexRole[v]&roleOutput != 0
}

// EdgeFrom returns the tail of edge e.
func (g *Graph) EdgeFrom(e int32) int32 { return g.edgeFrom[e] }

// EdgeTo returns the head of edge e.
func (g *Graph) EdgeTo(e int32) int32 { return g.edgeTo[e] }

// OutEdges returns the IDs of edges leaving v (shared slice; do not mutate).
func (g *Graph) OutEdges(v int32) []int32 {
	return g.outEdges[g.outStart[v]:g.outStart[v+1]]
}

// InEdges returns the IDs of edges entering v (shared slice; do not mutate).
func (g *Graph) InEdges(v int32) []int32 {
	return g.inEdges[g.inStart[v]:g.inStart[v+1]]
}

// CSROut exposes the forward CSR arrays directly for hot traversal loops:
// edges leaving v occupy slots start[v]..start[v+1] of edges, and heads[i]
// is the head vertex of the edge in slot i. All three slices are shared and
// must not be mutated.
func (g *Graph) CSROut() (start, edges, heads []int32) {
	return g.outStart, g.outEdges, g.outHeads
}

// CSRIn is CSROut for the reverse adjacency: tails[i] is the tail vertex of
// the edge in slot i of the in-edge CSR.
func (g *Graph) CSRIn() (start, edges, tails []int32) {
	return g.inStart, g.inEdges, g.inTails
}

// OutSlot returns the position of edge e in the forward CSR edge array,
// i.e. the index i with CSROut() edges[i] == e.
func (g *Graph) OutSlot(e int32) int32 { return g.outSlot[e] }

// Traversal-mask bits for the CSR-slot-aligned "allowed" byte array
// built by BuildOutAllowed and read by the path hunts, the routing guide
// and the majority-access certificate. A slot with AdjBlocked set is not
// traversable: the switch failed, or repair discarded one of its
// endpoints. AdjTerminal marks slots whose head is a network terminal,
// which routing treats specially (a circuit may only enter a terminal if
// it is the requested output).
const (
	AdjBlocked  uint8 = 1 << 0
	AdjTerminal uint8 = 1 << 1
)

// SlotAdmits reports whether traversal byte c admits stepping through its
// CSR slot toward head while hunting a path to out: the slot must be fully
// allowed, or objectionable only because head is a terminal AND head is
// the requested output — circuits may not pass through foreign terminals.
// Every path hunt (route.Router.Connect and the guided engine's hunt)
// shares this single admission rule so the engines cannot drift apart; it
// inlines to two compares.
func SlotAdmits(c uint8, head, out int32) bool {
	return c == 0 || (c == AdjTerminal && head == out)
}

// BuildOutAllowed fills dst (grown to NumEdges) with the combined
// traversal byte for every forward CSR slot: AdjBlocked unless the edge is
// allowed by edgeOK AND both of its endpoints by vertexOK (nil masks allow
// everything), plus AdjTerminal when the head is a terminal. Blocking the
// slots out of a discarded tail, as the repair rule's edge mask does
// (fault.Instance.RepairedEdgeUsable), lets a reverse sweep over these
// bytes give a discarded vertex nothing whatever the edge mask says.
func (g *Graph) BuildOutAllowed(edgeOK, vertexOK []bool, dst []uint8) []uint8 {
	dst = growBytes(dst, g.NumEdges())
	for i, e := range g.outEdges {
		w := g.outHeads[i]
		var b uint8
		if (edgeOK != nil && !edgeOK[e]) || (vertexOK != nil && (!vertexOK[g.edgeFrom[e]] || !vertexOK[w])) {
			b = AdjBlocked
		}
		if g.vertexRole[w] != 0 {
			b |= AdjTerminal
		}
		dst[i] = b
	}
	return dst
}

// growBytes resizes s to n elements, reusing capacity when possible; the
// contents are unspecified and must be overwritten by the caller.
func growBytes(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

// OutDegree returns the number of switches leaving v.
func (g *Graph) OutDegree(v int32) int { return int(g.outStart[v+1] - g.outStart[v]) }

// InDegree returns the number of switches entering v.
func (g *Graph) InDegree(v int32) int { return int(g.inStart[v+1] - g.inStart[v]) }

// Degree returns the total number of switches incident to v.
func (g *Graph) Degree(v int32) int { return g.OutDegree(v) + g.InDegree(v) }

// MaxDegree returns the maximum total degree over all vertices.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Mirror returns the mirror image of g in the paper's sense: inputs and
// outputs are exchanged and every edge is reversed. Vertex and edge IDs are
// preserved, so fault states computed for g apply verbatim to the mirror.
// The mirror of an acyclic graph is acyclic, and Levels levels it like any
// other graph.
func (g *Graph) Mirror() *Graph {
	b := NewBuilder(g.NumEdges())
	b.AddVertices(g.NumVertices())
	for e := range g.edgeFrom {
		b.AddEdge(g.edgeTo[e], g.edgeFrom[e])
	}
	for _, v := range g.outputs {
		b.MarkInput(v)
	}
	for _, v := range g.inputs {
		b.MarkOutput(v)
	}
	return b.Freeze()
}

// Depth returns the largest number of switches on any directed path from an
// input to an output — the paper's "depth" measure. It returns Levels'
// error if the graph is cyclic. Unreachable outputs contribute nothing.
// The longest-path recurrence runs over the cached level order, in which
// every edge points forward.
func (g *Graph) Depth() (int, error) {
	lv, err := g.Levels()
	if err != nil {
		return 0, err
	}
	const unset = int32(-1)
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = unset
	}
	for _, v := range g.inputs {
		dist[v] = 0
	}
	for p := range dist {
		v := lv.At(int32(p))
		if dist[v] == unset {
			continue
		}
		for _, w := range g.outHeads[g.outStart[v]:g.outStart[v+1]] {
			if d := dist[v] + 1; d > dist[w] {
				dist[w] = d
			}
		}
	}
	best := int32(0)
	for _, v := range g.outputs {
		if dist[v] > best {
			best = dist[v]
		}
	}
	return int(best), nil
}

// UndirectedDistances returns the BFS distance (in switches, ignoring edge
// direction) from src to every vertex; unreachable vertices get -1. This is
// the distance notion of the paper's Section 5 lower-bound argument.
func (g *Graph) UndirectedDistances(src int32) []int32 {
	n := g.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		d := dist[v] + 1
		for _, e := range g.OutEdges(v) {
			if w := g.edgeTo[e]; dist[w] < 0 {
				dist[w] = d
				queue = append(queue, w)
			}
		}
		for _, e := range g.InEdges(v) {
			if w := g.edgeFrom[e]; dist[w] < 0 {
				dist[w] = d
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// ReachableFrom returns, as a boolean slice, the set of vertices reachable
// from src along directed edges, restricted to vertices allowed by ok
// (ok==nil allows everything; src is always visited).
func (g *Graph) ReachableFrom(src int32, ok func(int32) bool) []bool {
	seen := make([]bool, g.NumVertices())
	seen[src] = true
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.OutEdges(v) {
			w := g.edgeTo[e]
			if !seen[w] && (ok == nil || ok(w)) {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

// Validate performs structural sanity checks: terminal sets are non-empty
// and disjoint, inputs have no incoming switches, outputs no outgoing ones.
// Constructions call this in tests rather than at build time, since some
// intermediate graphs (e.g. expander blocks) have no terminals.
func (g *Graph) Validate() error {
	if len(g.inputs) == 0 || len(g.outputs) == 0 {
		return fmt.Errorf("graph: missing terminals (%d inputs, %d outputs)", len(g.inputs), len(g.outputs))
	}
	seen := make(map[int32]bool, len(g.inputs))
	for _, v := range g.inputs {
		if seen[v] {
			return fmt.Errorf("graph: duplicate input %d", v)
		}
		seen[v] = true
		if g.InDegree(v) != 0 {
			return fmt.Errorf("graph: input %d has in-degree %d", v, g.InDegree(v))
		}
	}
	for _, v := range g.outputs {
		if seen[v] {
			return fmt.Errorf("graph: output %d is also an input or duplicated", v)
		}
		seen[v] = true
		if g.OutDegree(v) != 0 {
			return fmt.Errorf("graph: output %d has out-degree %d", v, g.OutDegree(v))
		}
	}
	return nil
}

// DOT renders the graph in Graphviz format (small graphs only; intended for
// documentation and debugging).
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n  rankdir=LR;\n", name)
	for _, v := range g.inputs {
		fmt.Fprintf(&b, "  v%d [shape=invtriangle,label=\"in%d\"];\n", v, v)
	}
	for _, v := range g.outputs {
		fmt.Fprintf(&b, "  v%d [shape=triangle,label=\"out%d\"];\n", v, v)
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		fmt.Fprintf(&b, "  v%d -> v%d;\n", g.edgeFrom[e], g.edgeTo[e])
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes a network for reporting: the complexity measures of the
// paper plus degree information.
type Stats struct {
	Vertices  int
	Edges     int // size in the paper's sense
	Inputs    int
	Outputs   int
	Depth     int // depth in the paper's sense
	MaxDegree int
}

// ComputeStats gathers Stats for g. Cyclic graphs report Depth -1.
func ComputeStats(g *Graph) Stats {
	depth, err := g.Depth()
	if err != nil {
		depth = -1
	}
	return Stats{
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		Inputs:    len(g.inputs),
		Outputs:   len(g.outputs),
		Depth:     depth,
		MaxDegree: g.MaxDegree(),
	}
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("V=%d E=%d in=%d out=%d depth=%d maxdeg=%d",
		s.Vertices, s.Edges, s.Inputs, s.Outputs, s.Depth, s.MaxDegree)
}
