// Package seamcontract is the ftlint fixture for the seamcontract
// analyzer: direct admission-mask reads and unsanctioned claim writes are
// seeded violations; the traversal-byte seam, mask writes, claim reads,
// and annotated owners must stay silent.
package seamcontract

import (
	"sync/atomic"

	"ftcsn/internal/fault"
)

type router struct {
	vertexOK []bool
	edgeOK   []bool
	visited  []bool
	owner    []int32
	allowed  []uint8
}

func (r *router) BadVertexRead(v int32) bool {
	return r.vertexOK[v] // want "direct admission-mask read"
}

func (r *router) BadEdgeRead(e int32) bool {
	return r.edgeOK[e] // want "direct admission-mask read"
}

func BadStateRead(st []fault.State, e int32) bool {
	return st[e] == fault.Normal // want "fault.State read"
}

func (r *router) PlainBoolRead(i int32) bool {
	return r.visited[i] // not a mask name: no finding
}

func (r *router) TraversalBytes(slot int32) bool {
	return r.allowed[slot] == 0 // the sanctioned shared seam
}

func (r *router) MaskWrite(v int32) {
	r.vertexOK[v] = false // writes are the maintainers' job: exempt
}

func (r *router) AuditedRead(v int32) bool {
	//ftlint:ignore seamcontract fixture: audited reader, proves suppression is honored
	return r.vertexOK[v]
}

func (r *router) BadOwnerAssign(v, in int32) {
	r.owner[v] = in // want "write to the claim array outside a //ftcsn:claimowner"
}

func (r *router) BadOwnerOpAssign(v int32) {
	r.owner[v] += 1 // want "write to the claim array outside a //ftcsn:claimowner"
}

func (r *router) BadOwnerIncDec(v int32) {
	r.owner[v]++ // want "write to the claim array outside a //ftcsn:claimowner"
	r.owner[v]-- // want "write to the claim array outside a //ftcsn:claimowner"
}

func (r *router) BadOwnerClear() {
	clear(r.owner) // want "clear of the claim array outside a //ftcsn:claimowner"
}

//ftcsn:claimowner fixture: the sanctioned claim and release helpers
func (r *router) GoodOwner(path []int32) {
	for _, v := range path {
		r.owner[v] = path[0]
	}
	r.owner[path[0]]++
	clear(r.owner)
}

func (r *router) OwnerRead(v int32) bool {
	return r.owner[v] >= 0 // reads are free
}

func (r *router) OwnerSliceSwap(owner []int32) {
	r.owner = owner // adopting a whole slice writes no element
}

func LocalOwnerMap(v, in int32) map[int32]int32 {
	owner := map[int32]int32{}
	owner[v] = in // a map named owner is not the claim array
	return owner
}

// atomicRouter keeps its claim array as atomics: Rule B covers the
// sync/atomic mutators too.
type atomicRouter struct {
	owner []atomic.Int32
}

func (r *atomicRouter) BadClaimWrite(v int32) {
	r.owner[v].Store(1) // want "Store on the claim array outside a //ftcsn:claimowner"
}

func (r *atomicRouter) BadClaimCAS(v int32) bool {
	return r.owner[v].CompareAndSwap(0, 1) // want "CompareAndSwap on the claim array outside a //ftcsn:claimowner"
}

//ftcsn:claimowner fixture: the sanctioned claim helper
func (r *atomicRouter) GoodClaim(v int32) bool {
	if !r.owner[v].CompareAndSwap(0, 1) {
		return false
	}
	r.owner[v].Store(1)
	return true
}

func (r *atomicRouter) ClaimRead(v int32) int32 {
	return r.owner[v].Load() // reads are free: Load is not a mutator
}
