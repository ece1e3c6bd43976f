package route

// Engine is the uniform seam over this package's two path-hunting engines
// — the sequential Router and the guided ShardedEngine — so the layers
// above (core's Theorem-2 churn pipeline, netsim's workload drivers and
// serving loop, experiment E9) can swap engines without hand-rolled
// per-engine call paths.
//
// The shared contract:
//
//   - ConnectBatch serves a batch of connection requests with
//     sequential-batch semantics and reports per-request results in input
//     order: request i's decision and path are exactly what a sequential
//     Router would produce processing the stream in order, so any prefix
//     of the results depends only on the corresponding prefix of the
//     requests. Every caller may rely on this — batching is never visible
//     in decisions or paths. A request whose In is not an input terminal
//     or whose Out is not an output terminal is refused.
//   - Disconnect releases a circuit previously established by
//     ConnectBatch; PathOf returns its path (pooled slices: valid only
//     while the circuit is live). Reset releases every live circuit.
//   - SetMasksShared adopts the caller-maintained repair masks and
//     CSR-slot traversal bytes (core.MaskUpdater's slices); MasksChanged
//     tells the engine those adopted bytes were edited in place between
//     batches, so engines that derive per-epoch state from them (the
//     guided engine's routing guide) can refresh. MasksChangedDiff is
//     the same notification carrying the exact change lists the maintainer
//     already computed (core.MaskUpdater.Apply's recomputed edges and
//     ChangedVertices' usability flips): engines with derived state
//     refresh incrementally in O(#changes) instead of O(E), with results
//     bit-identical to a full MasksChanged. The lists may safely
//     over-approximate but must cover every edit since the last
//     notification; when the caller cannot bound the edits, MasksChanged
//     remains the full-rebuild fallback. Engines that read the bytes live
//     treat both as no-ops.
//   - Stats reports cumulative serving counters in engine-neutral form.
//
// Engines are not safe for concurrent use.
type Engine interface {
	ConnectBatch(reqs []Request, res []Result) []Result
	Disconnect(in, out int32) error
	PathOf(in, out int32) []int32
	Reset()
	Stats() EngineStats
	SetMasksShared(vertexOK, edgeOK []bool, outAllowed []uint8)
	MasksChanged()
	MasksChangedDiff(vertices, edges []int32)
}

// EngineStats is the engine-neutral cumulative serving record of an
// Engine's ConnectBatch history.
type EngineStats struct {
	Batches  int64 // ConnectBatch calls
	Requests int64 // requests served across all batches
	Accepted int64 // circuits established
	Rejected int64 // requests denied (no idle path, busy/unusable/non-terminal endpoint)
}

// Request asks for a circuit from In to Out.
type Request struct {
	In, Out int32
}

// Result reports the outcome of one request.
type Result struct {
	Request
	Path []int32 // nil when the request failed
}

// Compile-time checks: both engines implement the seam.
var (
	_ Engine = (*Router)(nil)
	_ Engine = (*ShardedEngine)(nil)
)

// circuits is the guided engine's per-input live-circuit registry: at
// most one live circuit per input terminal — an input stays claimed while
// connected, so a second circuit cannot coexist — with O(1) install,
// lookup, and swap-removal. Fields are parallel arrays indexed by vertex:
// out[in] is the live circuit's output (-1 = none), path[in] its path, and
// ins/pos a mutual index for O(1) removal from the live list.
type circuits struct {
	out  []int32
	path [][]int32
	ins  []int32
	pos  []int32
}

func (c *circuits) init(n int) {
	c.out = make([]int32, n)
	c.path = make([][]int32, n)
	c.pos = make([]int32, n)
	for v := range c.out {
		c.out[v] = -1
		c.pos[v] = -1
	}
}

// lookup returns the live path for (in, out), or nil.
func (c *circuits) lookup(in, out int32) []int32 {
	if in < 0 || int(in) >= len(c.out) || c.out[in] != out {
		return nil
	}
	return c.path[in]
}

// install registers a freshly established circuit.
func (c *circuits) install(in, out int32, p []int32) {
	c.out[in] = out
	c.path[in] = p
	c.pos[in] = int32(len(c.ins))
	c.ins = append(c.ins, in)
}

// remove unregisters the circuit (in, out), returning its path.
func (c *circuits) remove(in, out int32) ([]int32, bool) {
	if in < 0 || int(in) >= len(c.out) || c.out[in] != out {
		return nil, false
	}
	p := c.path[in]
	c.path[in] = nil
	c.out[in] = -1
	pos := c.pos[in]
	last := int32(len(c.ins) - 1)
	moved := c.ins[last]
	c.ins[pos] = moved
	c.pos[moved] = pos
	c.ins = c.ins[:last]
	c.pos[in] = -1
	return p, true
}

// drain unregisters every live circuit, handing each (input, path) to f
// (which releases claims, retires pooled paths, or simply forgets).
func (c *circuits) drain(f func(in int32, path []int32)) {
	for _, in := range c.ins {
		f(in, c.path[in])
		c.path[in] = nil
		c.out[in] = -1
		c.pos[in] = -1
	}
	c.ins = c.ins[:0]
}

// growResults resizes res to n entries, reusing capacity when possible.
func growResults(res []Result, n int) []Result {
	if cap(res) < n {
		return make([]Result, n)
	}
	return res[:n]
}

// ConnectBatch serves the requests strictly in order through Connect,
// reusing res (grown as needed) — the sequential reference implementation
// of the Engine seam. Path is nil on rejection (non-terminal, busy or
// unusable endpoint, or no idle path — the same outcomes Connect reports
// as errors).
func (rt *Router) ConnectBatch(reqs []Request, res []Result) []Result {
	res = growResults(res, len(reqs))
	rt.stats.Batches++
	rt.stats.Requests += int64(len(reqs))
	for i, rq := range reqs {
		res[i] = Result{Request: rq}
		if path, err := rt.Connect(rq.In, rq.Out); err == nil {
			res[i].Path = path
			rt.stats.Accepted++
		} else {
			rt.stats.Rejected++
		}
	}
	return res
}

// Stats returns the cumulative ConnectBatch serving counters.
func (rt *Router) Stats() EngineStats { return rt.stats }

// MasksChanged is a no-op: the router reads the shared traversal bytes
// live, so in-place edits between batches need no refresh.
func (rt *Router) MasksChanged() {}

// MasksChangedDiff is a no-op for the same reason as MasksChanged: no
// derived per-epoch state exists, so the change lists carry nothing to
// maintain.
func (rt *Router) MasksChangedDiff(vertices, edges []int32) {}
