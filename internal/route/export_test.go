package route

// Methods only tests call: production code has no use for them, so they
// live with the tests (see ftlint's deadexport rule).

// SetMasks replaces the usable-vertex and usable-switch masks (as produced
// by fault.Instance.Repair / RepairedEdgeUsable) and releases every
// established circuit, since a mask change invalidates existing paths. It
// lets one router serve many fault instances without reallocating its BFS
// and circuit state.
func (rt *Router) SetMasks(vertexOK, edgeOK []bool) {
	rt.vertexOK, rt.edgeOK = vertexOK, edgeOK
	rt.allowedOwned = rt.g.BuildOutAllowed(edgeOK, vertexOK, rt.allowedOwned)
	rt.allowed = rt.allowedOwned
	rt.Reset()
}

// Busy reports whether vertex v is held by a circuit.
func (rt *Router) Busy(v int32) bool { return rt.busy[v] }

// ActiveCircuits returns the number of established circuits.
func (rt *Router) ActiveCircuits() int { return len(rt.circ.ins) }
