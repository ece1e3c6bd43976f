package core

// accessOracle is the majority-access certificate's test oracle: one BFS
// per terminal. It reads VertexOK and EdgeOK only, never the traversal
// bytes, so a word-parallel report that matches it also vouches for the
// bytes the sweep read. Nil masks impose no restriction, as in Masks.
type accessOracle struct {
	nw    *Network
	level []int32 // per-vertex topological level (== stage for 𝒩)
	seen  []bool
	queue []int32
}

func newAccessOracle(nw *Network) *accessOracle {
	lv, err := nw.G.Levels()
	if err != nil {
		panic(err)
	}
	return &accessOracle{nw: nw, level: lv.PerVertex(), seen: make([]bool, nw.G.NumVertices())}
}

// count returns how many vertices on level target the terminal src
// reaches through allowed switches and vertices: along out-switches when
// forward, else along in-switches (how many target vertices reach src).
// src itself is visited unconditionally, and no vertex on or past the
// target level is expanded.
func (o *accessOracle) count(src, target int32, forward bool, m Masks) int {
	g := o.nw.G
	clear(o.seen)
	o.seen[src] = true
	o.queue = append(o.queue[:0], src)
	n := 0
	for head := 0; head < len(o.queue); head++ {
		v := o.queue[head]
		if o.level[v] == target {
			n++
			continue
		}
		if forward && o.level[v] > target || !forward && o.level[v] < target {
			continue // past the target level
		}
		edges := g.InEdges(v)
		if forward {
			edges = g.OutEdges(v)
		}
		for _, e := range edges {
			w := g.EdgeFrom(e)
			if forward {
				w = g.EdgeTo(e)
			}
			if o.seen[w] || (m.EdgeOK != nil && !m.EdgeOK[e]) || (m.VertexOK != nil && !m.VertexOK[w]) {
				continue
			}
			o.seen[w] = true
			o.queue = append(o.queue, w)
		}
	}
	return n
}

// majorityAccess writes into rep the report MajorityAccessInto must
// produce for m.
func (o *accessOracle) majorityAccess(m Masks, rep *MajorityReport) {
	nw := o.nw
	mid := int32(nw.MiddleStage)
	rep.MiddleSize = 0
	for _, l := range o.level {
		if l == mid {
			rep.MiddleSize++
		}
	}
	rep.InputAccess = rep.InputAccess[:0]
	rep.OutputAccess = rep.OutputAccess[:0]
	need := rep.MiddleSize/2 + 1
	rep.OK = true
	for _, in := range nw.Inputs() {
		c := o.count(in, mid, true, m)
		rep.InputAccess = append(rep.InputAccess, c)
		rep.OK = rep.OK && c >= need
	}
	for _, out := range nw.Outputs() {
		c := o.count(out, mid, false, m)
		rep.OutputAccess = append(rep.OutputAccess, c)
		rep.OK = rep.OK && c >= need
	}
}
